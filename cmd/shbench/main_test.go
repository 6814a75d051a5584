package main

import (
	"bytes"
	"context"
	"errors"
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

// A warm cache must serve the whole sweep ("(cached)" wall lines) and
// render the same tables as the cold run.
func TestRunWarmCacheServesSweep(t *testing.T) {
	o := options{exp: "E1", sw: cli.SweepFlags{Seeds: 2, Parallel: 2, CacheDir: t.TempDir()}, format: "text", progress: true}
	cold, _, err := bench(t, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, errOut, err := bench(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "(cached)") {
		t.Errorf("warm run not served from cache:\n%s", warm)
	}
	if strip(cold) != strip(warm) {
		t.Errorf("cached output diverged:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if !strings.Contains(errOut, "cache: 2 hit(s), 0 miss(es)") {
		t.Errorf("cache summary wrong:\n%s", errOut)
	}
	if !strings.Contains(errOut, "progress: 2/2") {
		t.Errorf("progress lines missing:\n%s", errOut)
	}
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
