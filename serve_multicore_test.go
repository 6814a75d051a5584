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

// TestServeMulticoreDeterministic: a multi-core Serve — per-core
// engines on their own goroutines behind the quantum dispatcher —
// renders byte-identically at GOMAXPROCS 1, 2 and 8 and on a repeated
// run, and conserves every request. Run under -race this is also the
// proof the dispatcher's channel handshake is the only synchronization
// the cell needs.
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
		t.Fatalf("multi-core cache replay diverged:\nfresh:\n%s\ncached:\n%s", fresh, cached)
	}
	if got := cached.Cells[0].Cores; got != 4 {
		t.Fatalf("replayed cell reports %d cores, want 4", got)
	}

	single := cfg
	single.Topology = Topology{Cores: 1}
	srep, err := LoadSweep(context.Background(), single, WithCache(dir))
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

// TestServeMulticoreTwoCoreAnomaly keeps ROADMAP item 3(b)'s acceptance
// case runnable: one event-aware cell at 8 req/µs — past single-core
// saturation — on 1, 2 and 4 cores. Every request is conserved, and the
// outcome is deterministic, so it is pinned.
//
// The 2-core row is an unexplained anomaly: a load the 1-core cell
// serves completely at p99 1.2 µs and the 4-core cell at 2.2 µs loses a
// quarter of its requests on 2 cores — dropped at admission (queue
// full), not shed at dispatch — at ten times the tail. ROADMAP item 3
// must name the mechanism and then either fix it (and re-pin this row)
// or state the explanation here.
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
