package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func keys(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	in := map[string]int{}
	for _, n := range got {
		in[n]++
	}
	for _, n := range want {
		in[n] += 2
	}
	for n, where := range in {
		switch where {
		case 1:
			t.Errorf("%s: emitted %q, which BENCHMARK.json does not list", what, n)
		case 2:
			t.Errorf("%s: BENCHMARK.json lists %q, which was not emitted", what, n)
		case 3:
		default:
			t.Errorf("%s: %q appears more than once", what, n)
		}
	}
}

// TestSmokeTiny runs every workload at smoke-test size, traced, and
// holds what the benchmark emits against BENCHMARK.json: the same
// workloads, and for the driver's line exactly the listed metrics, each
// with its unit.
func TestSmokeTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var wantWorkloads, gotWorkloads []string
	for _, w := range bj.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		if lw := lookupWorkload(w.Name); lw != nil && lw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why=%q, the benchmark says %q", w.Name, w.Why, lw.why)
		}
	}
	for _, w := range allWorkloads {
		gotWorkloads = append(gotWorkloads, w.name)
	}
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)

	wantUnit := map[string]string{}
	var wantE2E, wantLayer []string
	gates := map[string]metricDef{}
	for _, d := range endToEnd {
		if d.Gate {
			gates[d.Name] = d
		}
	}
	for _, m := range bj.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		wantUnit[m.Name] = m.Unit
		if d, ok := gates[m.Name]; !ok || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %s: BENCHMARK.json says better=%s bound=%g, the benchmark says %+v", m.Name, m.Better, m.Bound, d)
		}
	}
	for _, m := range bj.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		wantUnit[m.Name] = m.Unit
	}

	dir := t.TempDir()
	for _, w := range allWorkloads {
		res, err := runWorkload(w, options{seed: 7, scale: "tiny", reps: 1, trace: true, outDir: dir, start: time.Now()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s: %d checks, set-up %.3fs", w.name, res.Attempted, res.EndToEnd["setup_s"].Value)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		for traced, want := range map[bool][]string{false: wantE2E, true: wantLayer} {
			line := driverLine(res, traced)
			data, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Metrics map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			sameNames(t, w.name, keys(back.Metrics), want)
			for name, v := range back.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", w.name, name)
				}
				if v.Unit == "" || v.Unit != wantUnit[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, v.Unit, wantUnit[name])
				}
				// At smoke-test size a rep can finish inside one tick of the
				// kernel's CPU accounting, so cpu_user_s may read 0 here.
				if !traced && v.Value == 0 && name != "cpu_user_s" {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	cases := []struct {
		xs          []float64
		median, iqr float64
		min, max    float64
		wantN       int
		name        string
	}{
		{[]float64{5}, 5, 0, 5, 5, 1, "single sample"},
		{[]float64{4, 2}, 3, 2, 2, 4, 2, "two samples: quartiles clamp to the range"},
		{[]float64{3, 1, 2}, 2, 2, 1, 3, 3, "three samples"},
		// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 5.5, 1, 10, 10, "ten samples, exclusive method"},
		{[]float64{1, 1, 1, 1, 100}, 1, 49.5, 1, 100, 5, "one outlier leaves the median alone"},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != c.wantN || s.Median != c.median || s.IQR != c.iqr || s.Min != c.min || s.Max != c.max {
			t.Errorf("%s: summarize(%v) = %+v, want median %g iqr %g min %g max %g",
				c.name, c.xs, s, c.median, c.iqr, c.min, c.max)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	if d := relDiff(2, 2.5); d != 0.25 {
		t.Errorf("relDiff(2, 2.5) = %g, want 0.25", d)
	}
	if d := relDiff(0, 0); d != 0 {
		t.Errorf("relDiff(0, 0) = %g, want 0", d)
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		self  []int64
	}{
		{
			name: "nested: each level keeps what its child does not cover",
			spans: []span{
				{Name: "bench.rep", Start: 0, End: 100, Parent: -1},
				{Name: "exec.dual", Start: 10, End: 60, Parent: 0},
				{Name: "mem.access", Start: 20, End: 50, Parent: 1},
			},
			self: []int64{50, 20, 30},
		},
		{
			name: "overlapping siblings are counted once",
			spans: []span{
				{Name: "bench.rep", Start: 0, End: 100, Parent: -1},
				{Name: "machine.step", Start: 10, End: 50, Parent: 0},
				{Name: "machine.step", Start: 30, End: 70, Parent: 0},
				{Name: "mem.commit", Start: 40, End: 45, Parent: 0},
			},
			self: []int64{40, 40, 40, 5},
		},
		{
			name: "zero-length spans take and leave nothing",
			spans: []span{
				{Name: "bench.rep", Start: 0, End: 10, Parent: -1},
				{Name: "isa.encode", Start: 5, End: 5, Parent: 0},
				{Name: "bench.empty", Start: 7, End: 7, Parent: -1},
			},
			self: []int64{10, 0, 0},
		},
		{
			name: "a child running past its parent is clipped to it",
			spans: []span{
				{Name: "runner.sweep", Start: 0, End: 10, Parent: -1},
				{Name: "experiments.E1", Start: 8, End: 14, Parent: 0},
			},
			self: []int64{8, 6},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.self {
			if got[i] != c.self[i] {
				t.Errorf("%s: self time of span %d (%s) = %d, want %d", c.name, i, c.spans[i].Name, got[i], c.self[i])
			}
		}
	}

	// Folded by layer, a well-nested trace's self times add up to the
	// root span exactly.
	layers := layerSelf(cases[0].spans)
	if layers["bench"] != 50 || layers["exec"] != 20 || layers["mem"] != 30 {
		t.Errorf("layerSelf = %v, want bench 50, exec 20, mem 30", layers)
	}
}

// TestRecorderNesting drives the recorder the way a rep does and checks
// parents and the nil recorder's no-ops.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("bench.rep")
	outer := r.begin("workloads.compose")
	r.end(r.begin("isa.encode"))
	r.end(outer)
	r.end(root)
	want := []int{-1, 0, 1}
	for i, s := range r.spans {
		if s.Parent != want[i] || s.End < s.Start {
			t.Errorf("span %d %s: parent %d (want %d), start %d end %d", i, s.Name, s.Parent, want[i], s.Start, s.End)
		}
	}
	var none *recorder
	none.end(none.begin("x.y"))
}
