package machine

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The kernel's steady state — engine resume, LLC commit — must not
// allocate, observed or not: allocation in the quantum loop would
// dominate small quanta and make scaling numbers garbage-collector
// noise.
func TestMachineSteadyStateAllocs(t *testing.T) {
	t.Run("unobserved", func(t *testing.T) {
		spec := workloads.UnrolledCompute{BlockInstrs: 64, Iters: 1 << 20, Instances: 1}
		steadyStateAllocs(t, RunConfig{Spec: spec, Mode: ModeSolo})
	})
	t.Run("ring+registry", func(t *testing.T) {
		// Many short tasks, so cores keep halting and resuming — and
		// emitting into the shared ring — inside the measured quanta.
		spec := workloads.UnrolledCompute{BlockInstrs: 64, Iters: 32, Instances: 256}
		cfg := exec.Config{Tracer: trace.NewRing(1 << 10), Metrics: &metrics.Registry{}}
		steadyStateAllocs(t, RunConfig{Spec: spec, Mode: ModeSymmetric, Exec: cfg})
	})
	t.Run("smt", func(t *testing.T) {
		// Two chasers per core: stalls block one context while the
		// other runs, and the core idles when both wait on memory. SMT
		// emits no events, so no ring here.
		spec := workloads.PointerChase{Nodes: 8192, Hops: 1 << 20, Instances: 2}
		steadyStateAllocs(t, RunConfig{Spec: spec, Mode: ModeSMT, Exec: exec.Config{Metrics: &metrics.Registry{}}})
	})
}

// steadyStateAllocs warms a 2-core machine running rc, then requires
// zero allocations per quantum. A ring tracer must receive events while
// measuring, or the observed case would prove nothing.
func steadyStateAllocs(t *testing.T, rc RunConfig) {
	t.Helper()
	topo := DefaultTopology(2)
	topo.Quantum = 1024
	m, err := New(topo, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm the engines and the LLC log capacity.
	for i := 0; i < 8; i++ {
		if done, err := m.Step(); err != nil || done {
			t.Fatalf("machine finished during warm-up (done=%v err=%v); grow the workload", done, err)
		}
	}
	ring, _ := rc.Exec.Tracer.(*trace.Ring)
	var before uint64
	if ring != nil {
		before = ring.Total()
	}
	avg := testing.AllocsPerRun(100, func() {
		if done, err := m.Step(); err != nil || done {
			t.Fatalf("machine finished mid-measurement (done=%v err=%v)", done, err)
		}
	})
	if avg != 0 {
		t.Errorf("Step allocates %.1f objects per quantum in steady state, want 0", avg)
	}
	if ring != nil && ring.Total() == before {
		t.Error("no event reached the shared ring while measuring; the observed case is vacuous")
	}
}
