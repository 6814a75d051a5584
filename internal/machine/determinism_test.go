package machine

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// run8 executes the canonical 8-core determinism workload and returns
// everything observable: the full Stats (per-core exec stats, hierarchy
// counters and metrics snapshots included) plus every core's trace.
func run8(t *testing.T) (Stats, [][]trace.Event) {
	t.Helper()
	topo := DefaultTopology(8)
	topo.Quantum = 512 // small quantum → many barriers → more interleavings stressed
	m, err := New(topo, RunConfig{Spec: chaseSpec(), Mode: ModeSymmetric, Metrics: true, TraceN: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]trace.Event, topo.Cores)
	for i := range traces {
		traces[i] = m.TraceRing(i).Events()
	}
	return st, traces
}

// The acceptance criterion of the quantum kernel: an 8-core run is
// byte-identical — Stats, per-core metrics snapshots, per-core traces —
// across GOMAXPROCS settings and across repeated runs with the same
// seed. The handshake channels give the race detector the
// happens-before edges, so `go test -race` over this test doubles as
// the data-race proof.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	refSt, refTraces := run8(t)
	if refSt.LLC.Hits+refSt.LLC.Misses == 0 {
		t.Fatal("workload generated no LLC traffic; determinism test is vacuous")
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		st, traces := run8(t)
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("GOMAXPROCS=%d: stats diverged", procs)
		}
		if !reflect.DeepEqual(traces, refTraces) {
			t.Errorf("GOMAXPROCS=%d: traces diverged", procs)
		}
	}
}

func TestDeterminismAcrossRepeatedRuns(t *testing.T) {
	refSt, refTraces := run8(t)
	for rep := 0; rep < 3; rep++ {
		st, traces := run8(t)
		if !reflect.DeepEqual(st, refSt) {
			t.Fatalf("repeat %d: stats diverged", rep)
		}
		if !reflect.DeepEqual(traces, refTraces) {
			t.Fatalf("repeat %d: traces diverged", rep)
		}
	}
}

// ModeSMT under the kernel must be deterministic too.
func TestDeterminismSMT(t *testing.T) {
	run := func() Stats {
		topo := DefaultTopology(4)
		topo.Quantum = 512
		m, err := New(topo, RunConfig{Spec: chaseSpec(), Mode: ModeSMT, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SMT machine stats diverged across identical runs")
	}
}
