package machine

import (
	"testing"

	"repro/internal/workloads"
)

// The kernel's steady state — engine resume, LLC commit — must not
// allocate: allocation in the quantum loop would dominate small quanta
// and make scaling numbers garbage-collector noise.
func TestMachineSteadyStateAllocs(t *testing.T) {
	topo := DefaultTopology(2)
	topo.Quantum = 1024
	spec := workloads.UnrolledCompute{BlockInstrs: 64, Iters: 1 << 20, Instances: 1}
	m, err := New(topo, RunConfig{Spec: spec, Mode: ModeSolo})
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
	avg := testing.AllocsPerRun(100, func() {
		if done, err := m.Step(); err != nil || done {
			t.Fatalf("machine finished mid-measurement (done=%v err=%v)", done, err)
		}
	})
	if avg != 0 {
		t.Errorf("Step allocates %.1f objects per quantum in steady state, want 0", avg)
	}
}
