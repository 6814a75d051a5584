package repro

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/service"
)

// acceptanceConfig is the PR's headline sweep: one Session.Serve call
// offering a million requests (4 cells × 250k) at swept load, with the
// batch tier present so the class-blind policy exhibits the paper's
// queueing pathology.
func acceptanceConfig() ServiceConfig {
	return ServiceConfig{
		Workload: Workload{
			// A point lookup: a short dependent-pointer walk per request.
			Request:    PointerChase{Nodes: 512, Hops: 4, Instances: 4},
			Background: Compute{Iters: 3000, Instances: 2},
		},
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: 4},
		Rates:    []float64{4, 8},
		Requests: 250_000,
		Workers:  4,
		Queue:    64,
		Batch:    2,
		Policies: []ServicePolicy{PolicyAgnostic, PolicyEventAware},
	}
}

// TestServeMillionRequestsDeterministic is the acceptance check: a
// single Serve over ≥1M simulated requests at swept offered load
// renders per-policy throughput and p50/p99/p999 sojourn tables
// byte-identically at GOMAXPROCS 1, 2 and 8 and on a repeated run —
// and EventAware beats Agnostic on p99 in the same report (pinned
// regression below).
func TestServeMillionRequestsDeterministic(t *testing.T) {
	cfg := acceptanceConfig()
	s, err := NewSession(WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var ref string
	var rep *ServiceReport
	// The second 8 is the repeated-run check.
	for _, procs := range []int{1, 2, 8, 8} {
		runtime.GOMAXPROCS(procs)
		r, err := s.Serve(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := r.String()
		if ref == "" {
			ref, rep = out, r
			continue
		}
		if out != ref {
			t.Fatalf("GOMAXPROCS=%d: report diverged from reference:\n%s\n--- want ---\n%s", procs, out, ref)
		}
	}

	var total uint64
	for _, c := range rep.Cells {
		total += c.Requests
		if c.Completed+c.Dropped+c.Shed != c.Requests {
			t.Errorf("%s rate=%g: completed %d + dropped %d + shed %d != arrivals %d",
				c.Policy, c.Rate, c.Completed, c.Dropped, c.Shed, c.Requests)
		}
	}
	if total < 1_000_000 {
		t.Fatalf("sweep offered %d requests, acceptance needs ≥ 1M", total)
	}

	for _, want := range []string{"thr_per_us", "p50_us", "p99_us", "p999_us",
		"service: agnostic", "service: event-aware", "p99 sojourn"} {
		if !strings.Contains(ref, want) {
			t.Errorf("report missing %q:\n%s", want, ref)
		}
	}

	// Pinned regression: at moderate offered load the event-aware
	// policy must beat the class-blind one on p99 sojourn — the paper's
	// core claim. The margin is orders of magnitude (requests queue
	// behind whole batch ops under Agnostic), so >= would indicate a
	// real scheduling regression, not noise.
	ag := rep.Cell(PolicyAgnostic, 4)
	ea := rep.Cell(PolicyEventAware, 4)
	if ag == nil || ea == nil {
		t.Fatal("cells missing from report")
	}
	if ea.P99 >= ag.P99 {
		t.Errorf("event-aware p99 %d cycles is not better than agnostic %d at rate 4/µs", ea.P99, ag.P99)
	}
	if ea.Completed != ea.Requests {
		t.Errorf("event-aware left requests unserved: %d/%d", ea.Completed, ea.Requests)
	}
}

// TestServeCacheReplayIdentity: a cell replayed from the result cache
// renders byte-identically to one served fresh — the property the
// cell's cache Key exists for.
func TestServeCacheReplayIdentity(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.Workload = Workload{
		Request:    PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
		Background: Compute{Iters: 1500, Instances: 2},
	}
	cfg.Requests = 300
	cfg.Rates = []float64{0.2}
	cfg.Policies = []ServicePolicy{PolicySidecar, PolicySMT}

	dir := t.TempDir()
	fresh, err := LoadSweep(context.Background(), cfg, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := LoadSweep(context.Background(), cfg, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.String() != cached.String() {
		t.Fatalf("cache replay diverged:\nfresh:\n%s\ncached:\n%s", fresh, cached)
	}
	// A different grid must not collide with the cached cells.
	cfg.Rates = []float64{0.4}
	other, err := LoadSweep(context.Background(), cfg, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if other.String() == fresh.String() {
		t.Fatal("different offered load served identical (cache key ignored the service config)")
	}
}

// TestCellStatsResultRoundTrip: a cell's stats survive the
// ExperimentResult round trip (the result cache path) exactly.
func TestCellStatsResultRoundTrip(t *testing.T) {
	cfg := ServiceConfig{
		Workload: Workload{
			Request:    PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
			Background: Compute{Iters: 1500, Instances: 2},
		},
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.2},
		Requests: 400,
		Workers:  4,
		Queue:    32,
		Batch:    2,
	}
	cs, err := service.RunCell(DefaultTopology(1).Machine, cfg, ServiceCell{Policy: PolicySidecar, Rate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	back, err := cellStatsFromResult(cellResult(cs))
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := cs.Hist, back.Hist
	cs.Hist, back.Hist = nil, nil
	if cs != back {
		t.Fatalf("round trip changed stats:\n%+v\n%+v", cs, back)
	}
	if ha.String() != hb.String() {
		t.Fatal("round trip changed histogram")
	}
}

// TestServeValidates: structural mistakes fail before any simulation.
func TestServeValidates(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultServiceConfig()
	cfg.Requests = -1
	if _, err := s.Serve(context.Background(), cfg); err == nil {
		t.Error("negative request count accepted")
	}
	cfg = DefaultServiceConfig()
	cfg.Rates = []float64{0}
	if _, err := s.Serve(context.Background(), cfg); err == nil {
		t.Error("zero offered rate accepted")
	}
	// A rate whose arrival clock leaves the cycle range, and a
	// non-finite burst, fail with Config.Validate's own words.
	for name, mutate := range map[string]func(*ServiceConfig){
		"vanishing rate": func(c *ServiceConfig) { c.Rates, c.Requests = []float64{1e-300}, 2 },
		"infinite burst": func(c *ServiceConfig) { c.Arrivals = ArrivalSpec{Kind: ArrivalBursty, Rate: 0.1, Burst: math.Inf(1)} },
	} {
		cfg = DefaultServiceConfig()
		mutate(&cfg)
		_, want := cfg.Normalized()
		if _, err := s.Serve(context.Background(), cfg); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: Serve returned %v, Normalized %v", name, err, want)
		}
	}
}
