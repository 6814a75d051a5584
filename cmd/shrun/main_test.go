package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/exec"
	"repro/internal/isa"
)

func defaults() options {
	return options{
		wf:    cli.WorkloadFlags{Workload: "chase", Instances: 4, Seed: 20230626},
		tf:    cli.TopologyFlags{Cores: 1},
		shape: shapeDefaults,
		sw:    cli.SweepFlags{Seeds: 1, Parallel: 1},
	}
}

func TestRunSoloText(t *testing.T) {
	var out bytes.Buffer
	o := defaults()
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "validated against host reference: ok") {
		t.Errorf("missing validation line:\n%s", out.String())
	}
}

// Sizes no run can use, and run-shape flags the run never reads, are
// refused before anything is simulated, the sweep sizes with shbench's
// own texts.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"seeds 0", func(o *options) { o.sw.Seeds = 0 }, "-seeds must be ≥ 1 (got 0)"},
		{"parallel -3", func(o *options) { o.sw.Parallel = -3 }, "-parallel must be ≥ 0 (got -3)"},
		{"n -2", func(o *options) { o.mode, o.n = "symmetric", -2 }, "-n must be ≥ 1 (got -2)"},
		{"n 0", func(o *options) { o.n = 0 }, "-n must be ≥ 1 (got 0)"},
		{"solo n 4", func(o *options) { o.n = 4 }, "-n 4 shapes -mode symmetric runs only, not this -mode solo run"},
		{"solo n 2 on 2 cores", func(o *options) { o.n, o.tf.Cores = 2, 2 }, "-n 2 shapes -mode symmetric runs only, not this -mode solo run"},
		{"scavengers -4", func(o *options) { o.mode, o.scavengers = "dual", -4 }, "-scavengers must be ≥ 0 (got -4)"},
		{"dual n 4", func(o *options) { o.mode, o.n = "dual", 4 }, "-n 4 shapes -mode symmetric runs only, not this -mode dual run"},
		{"symmetric scavengers 9", func(o *options) { o.mode, o.scavengers = "symmetric", 9 }, "-scavengers 9 shapes -mode dual runs only, not this -mode symmetric run"},
		{"solo hwassist", func(o *options) { o.hwAssist = true }, "-hwassist true shapes -mode dual runs only, not this -mode solo run"},
		{"symmetric hwassist on 2 cores", func(o *options) { o.mode, o.hwAssist, o.tf.Cores = "symmetric", true, 2 }, "-hwassist true shapes -mode dual runs only, not this -mode symmetric run"},
		{"serve mode", func(o *options) { *o = serveOptions(); o.mode = "dual" }, "-mode dual shapes closed-loop runs only, not this -serve run"},
		{"serve n 7", func(o *options) { *o = serveOptions(); o.n = 7 }, "-n 7 shapes -mode symmetric runs only, not this -serve run"},
		{"serve scavengers 9", func(o *options) { *o = serveOptions(); o.scavengers = 9 }, "-scavengers 9 shapes -mode dual runs only, not this -serve run"},
		{"serve hwassist", func(o *options) { *o = serveOptions(); o.hwAssist = true }, "-hwassist true shapes -mode dual runs only, not this -serve run"},
	} {
		o := defaults()
		tc.set(&o)
		var out bytes.Buffer
		if err := run(&out, o); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: output before the refusal:\n%s", tc.name, out.String())
		}
	}
}

func TestRunMetricsTable(t *testing.T) {
	var out bytes.Buffer
	o := defaults()
	o.mode = "dual"
	o.metrics = true
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"observability", "l1_hits", "retired", "episodes"} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics table missing %q:\n%s", want, s)
		}
	}
}

// TestTraceOutProducesChromeTraceJSON is the end-to-end acceptance
// check: a -trace-out run must write JSON that validates against the
// Chrome trace-event schema's array-of-events form.
func TestTraceOutProducesChromeTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	var out bytes.Buffer
	o := defaults()
	o.mode = "symmetric"
	o.n = 4
	o.traceOut = path
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exported to "+path) {
		t.Errorf("missing export confirmation:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("-trace-out is not a JSON array of events: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace export")
	}
	phases := map[string]int{}
	for i, ev := range events {
		if name, ok := ev["name"].(string); !ok || name == "" {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
		ph, ok := ev["ph"].(string)
		if !ok || (ph != "X" && ph != "i" && ph != "M") {
			t.Fatalf("event %d: bad phase %v", i, ev["ph"])
		}
		phases[ph]++
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d: missing pid: %v", i, ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event %d: missing tid: %v", i, ev)
		}
		if ph != "M" {
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d: missing or negative ts: %v", i, ev)
			}
		}
	}
	// A symmetric run switches, so instants must be present, plus the
	// process/thread metadata rows.
	if phases["i"] == 0 || phases["M"] == 0 {
		t.Errorf("phase tally %v: want instants and metadata", phases)
	}
}

func TestSweepCachedAndIdentified(t *testing.T) {
	dir := t.TempDir()
	o := defaults()
	o.mode = "symmetric"
	o.n = 4
	o.sw.Seeds = 2
	o.sw.CacheDir = dir
	var cold, warm bytes.Buffer
	if err := run(&cold, o); err != nil {
		t.Fatal(err)
	}
	if err := run(&warm, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "0 hit(s), 2 miss(es)") {
		t.Errorf("cold sweep not 2 misses:\n%s", cold.String())
	}
	if !strings.Contains(warm.String(), "2 hit(s), 0 miss(es)") {
		t.Errorf("warm sweep not served from cache:\n%s", warm.String())
	}
	// A different knob must be a different cache key: n changes the job.
	o.n = 3
	var other bytes.Buffer
	if err := run(&other, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(other.String(), "0 hit(s), 2 miss(es)") {
		t.Errorf("changed -n wrongly served from cache:\n%s", other.String())
	}
}

func TestSweepRejectsCachePlusObservation(t *testing.T) {
	o := defaults()
	o.sw.Seeds = 2
	o.sw.Cache = true
	o.metrics = true
	var out bytes.Buffer
	if err := run(&out, o); err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("cache+metrics sweep must be rejected, got %v", err)
	}
}

func TestSweepMetricsAndTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.trace.json")
	o := defaults()
	o.mode = "symmetric"
	o.n = 4
	o.sw.Seeds = 2
	o.metrics = true
	o.traceOut = path
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "observability") {
		t.Errorf("sweep -metrics missing registry table:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("sweep -trace-out invalid: %v", err)
	}
}

// stripCacheLine drops the trailing "cache: N hit(s), ..." summary,
// whose counts legitimately differ between a cold and a warm run.
func stripCacheLine(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "cache: ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// replayEnv names the directory of a warm replay pass. A test binary
// started with it set is that pass: a child process of the test.
const replayEnv = "SHRUN_TEST_REPLAY_DIR"

// TestCacheReplay runs each command twice over one cache directory: the
// cold pass in process, the warm pass in a child process of the test
// binary. The warm pass must print the cold pass's tables (the "cache:"
// line aside) and serve every cell the cold pass computed from the
// cache, missing none: every cell's key holds across processes, which a
// second run in one process could not show.
func TestCacheReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"serve", []string{"-serve", "-workload", "chase", "-rate", "0.1,0.2", "-requests", "200", "-policy", "agnostic,event-aware"}},
		{"seeds", []string{"-workload", "chase", "-mode", "symmetric", "-n", "4", "-seeds", "3"}},
		{"cores", []string{"-workload", "chase", "-mode", "symmetric", "-n", "4", "-cores", "2", "-seeds", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if dir := os.Getenv(replayEnv); dir != "" {
				if err := os.WriteFile(filepath.Join(dir, "stdout"), []byte(pass(t, dir, tc.args)), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			dir := t.TempDir()
			cold := pass(t, dir, tc.args)
			child := osexec.Command(os.Args[0], "-test.run=^TestCacheReplay$/^"+tc.name+"$")
			child.Env = append(os.Environ(), replayEnv+"="+dir)
			if out, err := child.CombinedOutput(); err != nil {
				t.Fatalf("warm pass: %v\n%s", err, out)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			warm := string(raw)
			if stripCacheLine(cold) != stripCacheLine(warm) {
				t.Errorf("warm pass diverged:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
			}
			computed := cacheCounts.FindStringSubmatch(cold)
			if computed == nil || computed[1] != "0" {
				t.Fatalf("cold pass over a fresh cache did not miss every cell:\n%s", cold)
			}
			if want := "cache: " + computed[2] + " hit(s), 0 miss(es)"; !strings.Contains(warm, want) {
				t.Errorf("warm pass: want %q, got\n%s", want, warm)
			}
		})
	}
}

// cacheCounts reads the hits and misses of a "cache:" summary line.
var cacheCounts = regexp.MustCompile(`(?m)^cache: (\d+) hit\(s\), (\d+) miss\(es\)`)

// pass runs shrun with args in process over the cache in dir/cache and
// returns its output.
func pass(t *testing.T, dir string, args []string) string {
	t.Helper()
	var o options
	parse(&o, append([]string{"-cache-dir", filepath.Join(dir, "cache")}, args...))
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestServeRendersTables drives the open-loop harness end to end: the
// per-policy and cross-policy tables render, and a second run through
// the cache produces byte-identical tables served entirely from cache.
func TestServeRendersTables(t *testing.T) {
	o := defaults()
	o.wf.Workload = "bst"
	o.sf = cli.ServiceFlags{
		Serve:    true,
		Arrivals: "poisson",
		Rate:     "0.05,0.1",
		Requests: 20,
		Policy:   "sidecar,event-aware",
		Workers:  2,
		Queue:    16,
		Batch:    1,
		Burst:    8,
	}
	o.sw.Parallel = 4
	o.sw.CacheDir = t.TempDir()

	var first bytes.Buffer
	if err := run(&first, o); err != nil {
		t.Fatal(err)
	}
	s := first.String()
	for _, want := range []string{"service: sidecar", "service: event-aware", "p99 sojourn", "rate_per_us", "cache: "} {
		if !strings.Contains(s, want) {
			t.Errorf("serve output missing %q:\n%s", want, s)
		}
	}

	var second bytes.Buffer
	o.sw.Parallel = 1
	if err := run(&second, o); err != nil {
		t.Fatal(err)
	}
	if stripCacheLine(second.String()) != stripCacheLine(s) {
		t.Errorf("cached serve rerun diverged:\nfirst:\n%s\nsecond:\n%s", s, second.String())
	}
	// 2 policies × 2 rates, all served from the first run's cache.
	if !strings.Contains(second.String(), "4 hit(s), 0 miss(es)") {
		t.Errorf("warm rerun did not serve from cache:\n%s", second.String())
	}
}

// Service flags without -serve fail upfront, and -serve rejects the
// closed-loop-only knobs.
func TestServeFlagChecks(t *testing.T) {
	o := defaults()
	o.sf.Rate = "0.5"
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("-rate without -serve accepted")
	}

	o = defaults()
	o.sf = cli.ServiceFlags{Serve: true, Arrivals: "poisson", Requests: 10,
		Policy: "agnostic", Workers: 2, Queue: 8, Batch: 1, Burst: 8}
	o.sw.Seeds = 3
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("-serve with -seeds accepted")
	}
}

// serveOptions is a small observed-ready serve sweep: one event-aware
// cell at a load that keeps two cores busy.
func serveOptions() options {
	o := defaults()
	o.sf = cli.ServiceFlags{Serve: true, Arrivals: "poisson", Rate: "8", Requests: 200,
		Policy: "event-aware", Workers: 4, Queue: 64, Batch: 2, Burst: 8}
	return o
}

// -serve observes like every other run: -metrics prints the sweep's
// service rows, and -cache with observation is refused with the seed
// sweep's own words.
func TestServeMetrics(t *testing.T) {
	o := serveOptions()
	o.metrics = true
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if got := tableValue(t, out.String(), "service", "completed"); got == "0" {
		t.Errorf("service completed is 0 after an observed serve:\n%s", out.String())
	}

	o.sw.CacheDir = t.TempDir()
	err := run(&bytes.Buffer{}, o)
	o = defaults()
	o.sw.Seeds, o.metrics, o.sw.CacheDir = 2, true, t.TempDir()
	want := run(&bytes.Buffer{}, o)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("-serve -metrics -cache-dir refused with %v, the seed sweep with %v", err, want)
	}
}

// -serve -cores 2 -trace-out exports one process row per core.
func TestServeTraceOutHasProcessPerCore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.trace.json")
	o := serveOptions()
	o.tf.Cores = 2
	o.traceOut = path
	if err := run(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	if pids := processRows(t, path); len(pids) != 2 || !pids[0] || !pids[1] {
		t.Errorf("process rows %v, want pids 0 and 1", pids)
	}
}

// manyCore is a small 2-core symmetric run: 2 tasks per core.
func manyCore() options {
	o := defaults()
	o.tf.Cores = 2
	o.mode = "symmetric"
	o.n = 2
	return o
}

// tableValue returns the value column of the observability table row
// "domain metric".
func tableValue(t *testing.T, out, domain, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == domain && f[1] == metric {
			return f[2]
		}
	}
	t.Fatalf("no %s %s row in:\n%s", domain, metric, out)
	return ""
}

// Every core observes into the one registry: -metrics on many cores
// prints machine-wide totals that match the run's own summary.
func TestManyCoreMetricsTotals(t *testing.T) {
	o := manyCore()
	o.metrics = true
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	var aggregate string
	for _, line := range strings.Split(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "  aggregate: "); ok {
			aggregate = strings.Fields(rest)[0]
		}
	}
	if aggregate == "" || aggregate == "0" {
		t.Fatalf("no aggregate retired count:\n%s", s)
	}
	if got := tableValue(t, s, "cpu", "retired"); got != aggregate {
		t.Errorf("cpu retired = %s, aggregate retired = %s", got, aggregate)
	}
	if got := tableValue(t, s, "sched", "requests"); got != "4" {
		t.Errorf("sched requests = %s, want 4 (2 cores × 2 tasks)", got)
	}
	if got := tableValue(t, s, "mem", "l1_hits"); got == "0" {
		t.Errorf("mem l1_hits is 0 on a run that retired %s instructions", aggregate)
	}
}

// -trace-out on many cores exports one process row per core.
func TestManyCoreTraceOutHasProcessPerCore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mc.trace.json")
	o := manyCore()
	o.traceOut = path
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if pids := processRows(t, path); len(pids) != 2 || !pids[0] || !pids[1] {
		t.Errorf("process rows %v, want pids 0 and 1", pids)
	}
}

// processRows reads a -trace-out file and returns the pids of its
// Perfetto process rows.
func processRows(t *testing.T, path string) map[float64]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("-trace-out invalid: %v", err)
	}
	pids := map[float64]bool{}
	for _, ev := range events {
		if ev["name"] == "process_name" {
			pids[ev["pid"].(float64)] = true
		}
	}
	return pids
}

// An observed many-core sweep runs, reporting the last seed's totals.
func TestManyCoreSweepMetrics(t *testing.T) {
	o := manyCore()
	o.sw.Seeds = 2
	o.metrics = true
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "on 2 cores over 2 seeds") {
		t.Errorf("missing many-core sweep table:\n%s", s)
	}
	if got := tableValue(t, s, "sched", "requests"); got != "4" {
		t.Errorf("sched requests = %s, want 4 (the last seed's 2 cores × 2 tasks)", got)
	}
}

// TestToolchainChain runs the §3.2 binary toolchain end to end on the
// built tools, as a user does: profile, rewrite with the mapping report
// and the original image, verify the rewrite standalone, then run the
// saved image. Package main cannot be imported, so the test builds
// shprof, shinstr, shcheck and shrun. shinstr must write the image the
// library instruments, shcheck must read it clean, and shrun -image must
// print the library's own cycles for it: each part is entered at its
// "<part>.main" symbol, which core.Image.Remap writes where the library
// enters.
func TestToolchainChain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries and runs them")
	}
	dir := t.TempDir()
	build := osexec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/shprof", "repro/cmd/shinstr", "repro/cmd/shcheck", "repro/cmd/shrun")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the tools: %v\n%s", err, out)
	}
	tool := func(name string, args ...string) string {
		t.Helper()
		cmd := osexec.Command(filepath.Join(dir, name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	for _, w := range []string{"chase", "mixedchase"} {
		tool("shprof", "-workload", w, "-o", w+".prof.json")
		tool("shinstr", "-workload", w, "-profile", w+".prof.json",
			"-report", w+".map.json", "-origout", w+".orig.img", "-o", w+".img")
		if out := tool("shcheck", "-orig", w+".orig.img", "-map", w+".map.json", "-inst", w+".img", "-v"); !strings.Contains(out, ": 0 errors,") {
			t.Errorf("%s: shcheck -v did not read 0 errors:\n%s", w, out)
		}
		runArgs := []string{"-workload", w, "-image", w + ".img", "-mode", "symmetric", "-n", "8"}
		out := tool("shrun", runArgs...)

		// The library instruments and runs the scenario those flags name.
		var o options
		parse(&o, runArgs)
		h, part, err := o.wf.Harness()
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := h.Profile(part)
		if err != nil {
			t.Fatal(err)
		}
		img, err := h.Instrument(prof, h.Mach.PipelineOptions())
		if err != nil {
			t.Fatal(err)
		}
		written, err := cli.ReadImage(filepath.Join(dir, w+".img"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(isa.Encode(written), isa.Encode(img.Prog)) {
			t.Errorf("%s: shinstr wrote another image than the library instruments", w)
		}
		lib, err := h.RunSymmetric(img, part, o.n, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%s/symmetric: %d cycles", w, lib.Cycles); !strings.Contains(out, want) {
			t.Errorf("library run: %q; shrun -image:\n%s", want, out)
		}
	}
}
