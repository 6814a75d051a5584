package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	osexec "os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func bench(t *testing.T, o options) (string, string, error) {
	t.Helper()
	if o.tf.Cores == 0 {
		o.tf.Cores = 1 // the flag default; tests build options directly
	}
	var out, errOut bytes.Buffer
	err := run(context.Background(), &out, &errOut, o)
	return out.String(), errOut.String(), err
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	out, _, err := bench(t, options{exp: "E1,BOGUS", sw: cli.SweepFlags{Seeds: 1}, format: "text"})
	var unknown *experiments.UnknownIDError
	if !errors.As(err, &unknown) || unknown.ID != "BOGUS" {
		t.Fatalf("err = %v, want UnknownIDError for BOGUS", err)
	}
	if !strings.Contains(err.Error(), "F1") || !strings.Contains(err.Error(), "E20") {
		t.Errorf("error must list valid IDs: %v", err)
	}
	// Validation happens before any simulation: no experiment output.
	if strings.Contains(out, "### ") {
		t.Errorf("output produced before ID validation:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []options{
		{exp: "E1", sw: cli.SweepFlags{Seeds: 1}, format: "html"},
		{exp: "E1", sw: cli.SweepFlags{Seeds: 0}, format: "text"},
		{exp: "E1", sw: cli.SweepFlags{Seeds: 1, Parallel: -1}, format: "text"},
	}
	for _, o := range cases {
		if _, _, err := bench(t, o); err == nil {
			t.Errorf("options %+v accepted, want error", o)
		}
	}
}

func TestRunSingleExperimentOutput(t *testing.T) {
	out, _, err := bench(t, options{exp: "E1", sw: cli.SweepFlags{Seeds: 1}, format: "text", metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"softhide evaluation — 1 experiment(s)", "### E1", "wall time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`(?m)^[a-z0-9_.]+=-?\d+\.\d{4}$`).MatchString(out) {
		t.Errorf("-metrics produced no flat metric lines:\n%s", out)
	}
}

func TestRunSeedOverrideAppearsInHeader(t *testing.T) {
	out, _, err := bench(t, options{exp: "E1", sw: cli.SweepFlags{Seeds: 1}, format: "text", seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seed 42") {
		t.Errorf("seed override not reflected:\n%s", out)
	}
}

// strip removes the nondeterministic wall-time suffix lines so runs can
// be compared byte-for-byte on tables and metrics.
func strip(out string) string {
	re := regexp.MustCompile(`(?m)^\((cached|.* wall time)\)\n`)
	return re.ReplaceAllString(out, "")
}

// The acceptance property at the CLI layer: a multi-seed sweep renders
// identical tables, stability summaries and metrics at -parallel 1 and 8.
func TestRunParallelOutputMatchesSequential(t *testing.T) {
	base := options{exp: "E1,E13", sw: cli.SweepFlags{Seeds: 2}, format: "text", metrics: true}
	seqOpts, parOpts := base, base
	seqOpts.sw.Parallel = 1
	parOpts.sw.Parallel = 8
	seq, _, err := bench(t, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := bench(t, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if strip(seq) != strip(par) {
		t.Errorf("parallel output diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "metric stability over 2 seeds") {
		t.Errorf("stability summary missing:\n%s", seq)
	}
}

// replayEnv names the directory of a warm replay pass. A test binary
// started with it set is that pass: a child process of the test.
const replayEnv = "SHBENCH_TEST_REPLAY_DIR"

// TestCacheReplay runs each command twice over one cache directory: the
// cold pass in process, the warm pass in a child process of the test
// binary. The warm pass must print the cold pass's tables (the
// per-experiment wall-time or "(cached)" line aside) and serve every
// job the cold pass computed from the cache, missing none: every job's
// key holds across processes, which a second run in one process could
// not show.
func TestCacheReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // in the warm pass's stdout or stderr
	}{
		{"experiments", []string{"-exp", "F1,E1"}, []string{"(cached)"}},
		{"scaling", []string{"-cores", "2"}, nil},
		{"seeds", []string{"-exp", "E1", "-seeds", "2", "-parallel", "2", "-progress"}, []string{"(cached)", "progress: 2/2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if dir := os.Getenv(replayEnv); dir != "" {
				stdout, stderr := pass(t, dir, tc.args)
				writeFile(t, filepath.Join(dir, "stdout"), stdout)
				writeFile(t, filepath.Join(dir, "stderr"), stderr)
				return
			}
			dir := t.TempDir()
			cold, coldErr := pass(t, dir, tc.args)
			child := osexec.Command(os.Args[0], "-test.run=^TestCacheReplay$/^"+tc.name+"$")
			child.Env = append(os.Environ(), replayEnv+"="+dir)
			if out, err := child.CombinedOutput(); err != nil {
				t.Fatalf("warm pass: %v\n%s", err, out)
			}
			warm, warmErr := readFile(t, filepath.Join(dir, "stdout")), readFile(t, filepath.Join(dir, "stderr"))
			if strip(cold) != strip(warm) {
				t.Errorf("warm pass diverged:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
			}
			computed := cacheCounts.FindStringSubmatch(coldErr)
			if computed == nil || computed[1] != "0" {
				t.Fatalf("cold pass over a fresh cache did not miss every job:\n%s", coldErr)
			}
			if want := "cache: " + computed[2] + " hit(s), 0 miss(es)"; !strings.Contains(warmErr, want) {
				t.Errorf("warm pass: want %q, got\n%s", want, warmErr)
			}
			for _, want := range tc.want {
				if !strings.Contains(warm+warmErr, want) {
					t.Errorf("warm pass missing %q:\n%s%s", want, warm, warmErr)
				}
			}
		})
	}
}

// cacheCounts reads the hits and misses of a "cache:" summary line.
var cacheCounts = regexp.MustCompile(`(?m)^cache: (\d+) hit\(s\), (\d+) miss\(es\)`)

// pass runs shbench with args in process over the cache in dir/cache
// and returns its stdout and stderr.
func pass(t *testing.T, dir string, args []string) (string, string) {
	t.Helper()
	var o options
	parse(&o, append([]string{"-cache-dir", filepath.Join(dir, "cache")}, args...))
	stdout, stderr, err := bench(t, o)
	if err != nil {
		t.Fatal(err)
	}
	return stdout, stderr
}

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunMarkdownFormat(t *testing.T) {
	out, _, err := bench(t, options{exp: "E1", sw: cli.SweepFlags{Seeds: 1}, format: "md"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| --- |") {
		t.Errorf("markdown table missing:\n%s", out)
	}
}

// The scaling report's 1-core point runs at the -quantum override,
// though the topology flags refuse one at a single core.
func TestRunScalingTakesQuantum(t *testing.T) {
	out, _, err := bench(t, options{exp: "all", sw: cli.SweepFlags{Seeds: 1}, format: "text", tf: cli.TopologyFlags{Cores: 2, Quantum: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup at 2 cores") {
		t.Errorf("scaling report missing:\n%s", out)
	}
}
