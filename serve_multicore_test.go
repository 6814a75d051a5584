package repro

import (
	"context"
	"runtime"
	"testing"
)

// multicoreConfig is the multi-core acceptance sweep: one arrival
// stream per cell at a load past single-core saturation, spread over 4
// per-core policy engines by the quantum dispatcher.
func multicoreConfig() ServiceConfig {
	return ServiceConfig{
		Workload: Workload{
			Request:    PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
			Background: Compute{Iters: 1500, Instances: 2},
		},
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: 8},
		Rates:    []float64{8},
		Requests: 1500,
		Workers:  4,
		Queue:    64,
		Batch:    2,
		Policies: []ServicePolicy{PolicyAgnostic, PolicyEventAware},
		Topology: Topology{Cores: 4},
	}
}

// TestServeMulticoreDeterministic: a multi-core Serve — each cell's
// per-core engines stepped in core order on the cell's one goroutine by
// the quantum dispatcher — renders byte-identically at GOMAXPROCS 1, 2
// and 8 and on a repeated run, and conserves every request. The session
// serves two cells at a time on the runner's workers, so under -race
// this also proves that concurrent cells share no mutable state.
func TestServeMulticoreDeterministic(t *testing.T) {
	cfg := multicoreConfig()
	s, err := NewSession(WithParallelism(2))
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
			t.Fatalf("GOMAXPROCS=%d: multi-core report diverged from reference:\n%s\n--- want ---\n%s", procs, out, ref)
		}
	}

	for _, c := range rep.Cells {
		if c.Cores != 4 {
			t.Errorf("%s rate=%g served on %d cores, want 4", c.Policy, c.Rate, c.Cores)
		}
		if c.Completed+c.Dropped+c.Shed != c.Requests {
			t.Errorf("%s rate=%g: completed %d + dropped %d + shed %d != arrivals %d",
				c.Policy, c.Rate, c.Completed, c.Dropped, c.Shed, c.Requests)
		}
	}
}

// TestServeMulticoreCacheReplay: a multi-core cell replayed from the
// result cache renders byte-identically to one served fresh, and the
// core count participates in the key — the same sweep on 1 core is a
// different cell, not a stale hit.
func TestServeMulticoreCacheReplay(t *testing.T) {
	cfg := multicoreConfig()
	cfg.Requests = 600
	cfg.Policies = []ServicePolicy{PolicyEventAware}

	s, err := NewSession(WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := s.Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.String() != cached.String() {
		t.Fatalf("multi-core cache replay diverged:\nfresh:\n%s\ncached:\n%s", fresh, cached)
	}
	if got := cached.Cells[0].Cores; got != 4 {
		t.Fatalf("replayed cell reports %d cores, want 4", got)
	}

	single := cfg
	single.Topology = Topology{Cores: 1}
	srep, err := s.Serve(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if srep.String() == fresh.String() {
		t.Fatal("1-core sweep served the 4-core cell (core count missing from the cache key)")
	}
	if got := srep.Cells[0].Cores; got != 1 {
		t.Fatalf("single-core cell reports %d cores, want 1", got)
	}
}

// TestServeInheritsSessionTopology: a Serve call with a zero Topology
// runs on the session's (WithTopology), so shrun -serve -cores N and
// library users get multi-core serving without repeating the topology
// per sweep.
func TestServeInheritsSessionTopology(t *testing.T) {
	cfg := multicoreConfig()
	cfg.Requests = 400
	cfg.Policies = []ServicePolicy{PolicyEventAware}
	cfg.Topology = Topology{}

	s, err := NewSession(WithTopology(DefaultTopology(2)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cells[0].Cores; got != 2 {
		t.Fatalf("cell served on %d cores, want the session topology's 2", got)
	}
}

// TestServeMulticoreTwoCoreAnomaly pins one event-aware cell at 8 req/µs
// — past single-core saturation — on 1, 2 and 4 cores. Every request is
// conserved, and the outcome is deterministic, so it is pinned.
//
// The 2-core row is the dispatcher's throttle: a load the 1-core cell
// serves completely at p99 1.2 µs and the 4-core cell at 2.2 µs loses a
// quarter of its requests on 2 cores — dropped at admission (queue
// full), not shed at dispatch — at ten times the tail. A core of a
// multi-core cell receives work only at quantum barriers, into a local
// queue capped at Workers, so 2 cores start at most 2 × 4 requests per
// 4 096-cycle quantum: 5.86 req/µs against the 8 offered. Over the
// 4 000 arrivals, with the 64 the admission queue holds still served
// once they stop, that predicts a 25.2 % drop share; 24.8 % (992) is
// observed. One core dispatches without barriers, and four cap at
// 11.7 req/µs, so neither row drops.
func TestServeMulticoreTwoCoreAnomaly(t *testing.T) {
	cfg := multicoreConfig()
	cfg.Requests = 4000
	cfg.Policies = []ServicePolicy{PolicyEventAware}
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		cores                    int
		completed, dropped, shed uint64
		p99                      uint64 // cycles; 3 cycles per ns
	}{
		{1, 4000, 0, 0, 3584},
		{2, 3008, 992, 0, 36864},
		{4, 4000, 0, 0, 6656},
	} {
		cfg.Topology = Topology{Cores: want.cores}
		rep, err := s.Serve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Cell(PolicyEventAware, 8)
		if c == nil {
			t.Fatalf("cores=%d: event-aware cell missing", want.cores)
		}
		if c.Completed+c.Dropped+c.Shed != c.Requests {
			t.Errorf("cores=%d: completed %d + dropped %d + shed %d != arrivals %d",
				want.cores, c.Completed, c.Dropped, c.Shed, c.Requests)
		}
		if c.Completed != want.completed || c.Dropped != want.dropped || c.Shed != want.shed || c.P99 != want.p99 {
			t.Errorf("cores=%d: completed/dropped/shed %d/%d/%d p99 %d cycles, pinned %d/%d/%d p99 %d",
				want.cores, c.Completed, c.Dropped, c.Shed, c.P99,
				want.completed, want.dropped, want.shed, want.p99)
		}
	}
}

// TestServeObservedIsPureObservation is TestMetricsDoNotPerturbRun's
// contract for serve: under WithObservability a sweep renders the same
// bytes as without, at 1, 2 and 4 cores, and the session's one registry
// and ring account for it — the registry's service section sums the
// report, its exec section reconciles with the cells' episode and chain
// counts, and a multi-core cell's events carry every core's index. The
// observed session shares a warm cache with the plain one, so a
// registry that matches also proves the observed sweep simulated every
// cell instead of replaying it.
func TestServeObservedIsPureObservation(t *testing.T) {
	cfg := multicoreConfig()
	cfg.Requests = 300
	cfg.Rates = []float64{4, 8}
	dir := t.TempDir()
	ps, err := NewSession(WithCache(dir), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4} {
		cfg.Topology = Topology{Cores: cores}
		plain, err := ps.Serve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ring := NewTraceRing(1 << 20)
		reg := &MetricsRegistry{}
		s, err := NewSession(WithCache(dir), WithParallelism(2),
			WithObservability(ObservabilityConfig{Tracer: ring, Metrics: reg}))
		if err != nil {
			t.Fatal(err)
		}
		observed, err := s.Serve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if observed.String() != plain.String() {
			t.Fatalf("%d cores: observation perturbed the report:\n%s\n--- unobserved ---\n%s", cores, observed, plain)
		}
		for i := range plain.Cells {
			a, b := plain.Cells[i], observed.Cells[i]
			if a.Hist.String() != b.Hist.String() {
				t.Errorf("%d cores, cell %d: sojourn histogram perturbed", cores, i)
			}
			a.Hist, b.Hist = nil, nil
			if a != b {
				t.Errorf("%d cores, cell %d: stats perturbed\n plain    %+v\n observed %+v", cores, i, a, b)
			}
		}
		if hits, misses := s.CacheStats(); hits+misses != 0 {
			t.Errorf("%d cores: observed sweep consulted the cache (%d hits, %d misses)", cores, hits, misses)
		}

		var sum ServiceCellStats
		for _, c := range observed.Cells {
			sum.Requests += c.Requests
			sum.Completed += c.Completed
			sum.Dropped += c.Dropped
			sum.Shed += c.Shed
			sum.BatchOps += c.BatchOps
			sum.Episodes += c.Episodes
			sum.Chains += c.Chains
		}
		svc := reg.Service
		if svc.Arrivals != sum.Requests || svc.Completed != sum.Completed || svc.Dropped != sum.Dropped ||
			svc.Shed != sum.Shed || svc.BatchOps != sum.BatchOps {
			t.Errorf("%d cores: registry service %d/%d/%d/%d/%d (arrivals/completed/dropped/shed/batch) != report %d/%d/%d/%d/%d",
				cores, svc.Arrivals, svc.Completed, svc.Dropped, svc.Shed, svc.BatchOps,
				sum.Requests, sum.Completed, sum.Dropped, sum.Shed, sum.BatchOps)
		}
		if svc.Completed == 0 || svc.Sojourn.Count != svc.Completed {
			t.Errorf("%d cores: %d sojourns for %d completions", cores, svc.Sojourn.Count, svc.Completed)
		}
		if reg.Exec.Episodes == 0 || reg.Exec.Episodes != sum.Episodes || reg.Exec.Chains != sum.Chains {
			t.Errorf("%d cores: registry exec %d episodes / %d chains != cells' %d / %d",
				cores, reg.Exec.Episodes, reg.Exec.Chains, sum.Episodes, sum.Chains)
		}
		if reg.Exec.EpisodeDur.Count != reg.Exec.Episodes {
			t.Errorf("%d cores: %d episode durations for %d episodes", cores, reg.Exec.EpisodeDur.Count, reg.Exec.Episodes)
		}
		if reg.CPU.Retired == 0 || reg.Mem.Accesses[LevelL1] == 0 {
			t.Errorf("%d cores: cell end folded no core counters (retired %d, L1 hits %d)", cores, reg.CPU.Retired, reg.Mem.Accesses[LevelL1])
		}

		seen := map[int]bool{}
		for _, e := range ring.Events() {
			seen[e.Core] = true
		}
		if ring.Total() != uint64(len(ring.Events())) {
			t.Fatalf("%d cores: ring overflowed (%d events); grow it", cores, ring.Total())
		}
		for c := 0; c < cores; c++ {
			if !seen[c] {
				t.Errorf("%d cores: no event stamped core %d", cores, c)
			}
		}
		if len(seen) != cores {
			t.Errorf("%d cores: events stamped %d distinct cores", cores, len(seen))
		}
	}
}
