package service

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// testConfig returns a small but non-trivial sweep cell configuration:
// memory-bound lookups with compute batch filler.
func testConfig() Config {
	return Config{
		Workload: Workload{
			Request:    workloads.PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
			Background: workloads.Compute{Iters: 1500, Instances: 2},
		},
		Arrivals: ArrivalSpec{Kind: Poisson, Rate: 0.2},
		Requests: 400,
		Workers:  4,
		Queue:    32,
		Batch:    2,
	}
}

// conservation checks the request-accounting invariant after a drained
// run: every arrival is admitted or dropped, and every admitted request
// is completed or shed.
func conservation(t *testing.T, cs CellStats, requests uint64) {
	t.Helper()
	if cs.Requests != requests {
		t.Errorf("%s: generated %d arrivals, want %d", cs.Policy, cs.Requests, requests)
	}
	if cs.Completed+cs.Dropped+cs.Shed != cs.Requests {
		t.Errorf("%s: completed %d + dropped %d + shed %d != arrivals %d",
			cs.Policy, cs.Completed, cs.Dropped, cs.Shed, cs.Requests)
	}
}

// Every policy must serve (and validate) the full request stream.
func TestRunCellAllPolicies(t *testing.T) {
	mach := core.DefaultMachine()
	cfg := testConfig()
	for _, pol := range []Policy{Agnostic, Sidecar, EventAware, OSThread, SMT} {
		cs, err := RunCell(mach, cfg, Cell{Policy: pol, Rate: 0.2})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		conservation(t, cs, uint64(cfg.Requests))
		if cs.Completed == 0 {
			t.Fatalf("%s: no requests completed", pol)
		}
		// The class-blind policies legitimately drop here: requests
		// queue behind whole batch ops (the paper's agnostic
		// pathology), so only the request-aware policies and the
		// stall-switching hardware are held to zero drops.
		if pol == Sidecar || pol == EventAware || pol == SMT {
			if cs.Dropped > 0 {
				t.Errorf("%s: %d drops at light load with queue 32", pol, cs.Dropped)
			}
		}
		if cs.P50 == 0 || cs.P99 < cs.P50 || cs.P999 < cs.P99 {
			t.Errorf("%s: implausible quantiles p50=%d p99=%d p999=%d", pol, cs.P50, cs.P99, cs.P999)
		}
		if pol != SMT && cs.BatchOps == 0 {
			t.Errorf("%s: batch tier did no work", pol)
		}
	}
}

// The asymmetric policies must actually run the episode machinery.
func TestAsymPoliciesHideEpisodes(t *testing.T) {
	mach := core.DefaultMachine()
	cfg := testConfig()
	for _, pol := range []Policy{Sidecar, EventAware} {
		cs, err := RunCell(mach, cfg, Cell{Policy: pol, Rate: 0.2})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if cs.Episodes == 0 {
			t.Errorf("%s: no hide episodes recorded", pol)
		}
	}
}

// Overload: a tiny queue at a rate far beyond capacity must drop at
// the door, and a tight ShedAfter must shed at dispatch — with
// accounting that still conserves every arrival.
func TestOverloadDropAndShed(t *testing.T) {
	mach := core.DefaultMachine()
	cfg := testConfig()
	cfg.Queue = 4
	cfg.Requests = 300
	cs, err := RunCell(mach, cfg, Cell{Policy: Agnostic, Rate: 50})
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, cs, uint64(cfg.Requests))
	if cs.Dropped == 0 {
		t.Fatalf("no drops at 50 req/µs into a 4-deep queue: %+v", cs)
	}

	cfg = testConfig()
	cfg.Requests = 300
	cfg.ShedAfter = 2000 // far below queueing delay at overload
	cs, err = RunCell(mach, cfg, Cell{Policy: Agnostic, Rate: 20})
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, cs, uint64(cfg.Requests))
	if cs.Shed == 0 {
		t.Fatalf("no sheds with ShedAfter=2000 at 20 req/µs: %+v", cs)
	}
}

// A cell is a pure function: serving the same cell twice must produce
// identical stats, including the rendered histogram.
func TestRunCellDeterministic(t *testing.T) {
	mach := core.DefaultMachine()
	cfg := testConfig()
	cl := Cell{Policy: EventAware, Rate: 0.3}
	a, err := RunCell(mach, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(mach, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := a.Hist, b.Hist
	a.Hist, b.Hist = nil, nil
	if a != b {
		t.Fatalf("cell stats diverged:\n%+v\n%+v", a, b)
	}
	if ha.String() != hb.String() {
		t.Fatal("sojourn histograms diverged")
	}
}

// RunCell over a grid, in grid order, renders one table per policy
// plus the cross-policy p99 comparison.
func TestRunReportShape(t *testing.T) {
	mach := core.DefaultMachine()
	cfg := testConfig()
	cfg.Requests = 150
	cfg.Rates = []float64{0.1, 0.3}
	cfg.Policies = []Policy{Agnostic, EventAware}
	rep := &Report{}
	for _, cl := range cfg.Cells() {
		cs, err := RunCell(mach, cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		rep.Cells = append(rep.Cells, cs)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	tables := rep.Tables()
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 2 per-policy + 1 comparison", len(tables))
	}
	out := rep.String()
	for _, want := range []string{"agnostic", "event-aware", "p99 sojourn"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if rep.Cell(EventAware, 0.3) == nil {
		t.Fatal("Cell lookup failed")
	}
}

func TestParsePolicies(t *testing.T) {
	ps, err := ParsePolicies("agnostic, event-aware,smt")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[0] != Agnostic || ps[1] != EventAware || ps[2] != SMT {
		t.Fatalf("got %v", ps)
	}
	if _, err := ParsePolicies("bogus"); err == nil {
		t.Fatal("want error")
	}
	for p := Agnostic; p <= SMT; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("%v does not round-trip: %v %v", p, got, err)
		}
	}
}

// Normalized's batch rule over Background nil/set × Batch 0/3: a nil
// Background becomes Batch compute tasks (two when Batch is 0 too), and
// only a set Background with Batch 0 runs no batch work.
func TestNormalizedBackgroundBatch(t *testing.T) {
	set := workloads.Compute{Iters: 1500, Instances: 3}
	for _, tc := range []struct {
		bg        workloads.Spec
		batch     int
		wantBatch int
		wantBg    workloads.Spec
	}{
		{nil, 0, 2, workloads.Compute{Iters: 3000, Instances: 2}},
		{nil, 3, 3, workloads.Compute{Iters: 3000, Instances: 3}},
		{set, 0, 0, set},
		{set, 3, 3, set},
	} {
		cfg := testConfig()
		cfg.Workload.Background, cfg.Batch = tc.bg, tc.batch
		n, err := cfg.Normalized()
		if err != nil {
			t.Fatalf("Background %v, Batch %d: %v", tc.bg, tc.batch, err)
		}
		if n.Batch != tc.wantBatch || n.Workload.Background != tc.wantBg {
			t.Errorf("Background %v, Batch %d normalized to Background %v, Batch %d; want %v, %d",
				tc.bg, tc.batch, n.Workload.Background, n.Batch, tc.wantBg, tc.wantBatch)
		}
	}
}

// Config validation catches the structural mistakes.
func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 8 // request spec only has 4 instances
	if _, err := RunCell(core.DefaultMachine(), cfg, Cell{Policy: Agnostic, Rate: 0.1}); err == nil {
		t.Fatal("want error for workers > request instances")
	}
	cfg = testConfig()
	cfg.Batch = 5 // background spec only has 2 instances
	if _, err := RunCell(core.DefaultMachine(), cfg, Cell{Policy: Agnostic, Rate: 0.1}); err == nil {
		t.Fatal("want error for batch > background instances")
	}

	// Hostile arrival specs fail up front, with one error text whichever
	// entry point meets them: a non-finite burst, and rates whose
	// arrival clock would leave the cycle range (its float-to-uint64
	// conversion saturates, and the cell would step toward an arrival it
	// never reaches).
	hostile := map[string]func(*Config){
		"infinite burst": func(c *Config) { c.Arrivals = ArrivalSpec{Kind: Bursty, Rate: 0.2, Burst: math.Inf(1)} },
		"NaN burst":      func(c *Config) { c.Arrivals.Burst = math.NaN() },
		"vanishing rate": func(c *Config) { c.Rates = []float64{1e-300} },
		"bursty clock":   func(c *Config) { c.Arrivals = ArrivalSpec{Kind: Bursty, Rate: 1e-6, Burst: 1e12} },
		"poisson clock":  func(c *Config) { c.Rates = []float64{1e-9}; c.Requests = 1 << 30 },
	}
	for name, mutate := range hostile {
		cfg := testConfig()
		cfg.Requests = 2
		mutate(&cfg)
		err := cfg.withDefaults().Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg.Arrivals)
			continue
		}
		if _, nerr := cfg.Normalized(); nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("%s: Normalized says %v, Validate %v", name, nerr, err)
		}
		if _, rerr := RunCell(core.DefaultMachine(), cfg, Cell{Policy: Agnostic, Rate: 0.2}); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: RunCell says %v, Validate %v", name, rerr, err)
		}
	}
	// Slow but representable clocks stay legal.
	cfg = testConfig()
	cfg.Arrivals = ArrivalSpec{Kind: Uniform, Rate: 1e-9}
	cfg.Requests = 1
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Errorf("one uniform arrival at 1e-9 req/µs refused: %v", err)
	}
}
