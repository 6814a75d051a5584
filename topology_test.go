package repro

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestWithTopology(t *testing.T) {
	topo := DefaultTopology(4)
	s, err := NewSession(WithTopology(topo), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Topology(); got.Cores != 4 {
		t.Errorf("cores = %d, want 4", got.Cores)
	}
	if s.Topology().Machine.Seed != 7 {
		t.Errorf("seed = %d, want 7 (WithSeed applies after WithTopology)", s.Topology().Machine.Seed)
	}
}

func TestSessionRunMachine(t *testing.T) {
	topo := DefaultTopology(2)
	reg := &MetricsRegistry{}
	s, err := NewSession(WithTopology(topo),
		WithObservability(ObservabilityConfig{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunMachine(MachineRun{
		Spec: PointerChase{Nodes: 512, Hops: 100, Instances: 2},
		Mode: MachineSymmetric,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cores) != 2 {
		t.Fatalf("%d core sections, want 2", len(st.Cores))
	}
	if st.Aggregate.Retired == 0 {
		t.Error("machine retired nothing")
	}
	// The session registry's Machine section carries the rollup.
	snap := s.MetricsSnapshot()
	if snap.Machine.Cores != 2 || snap.Machine.Retired != st.Aggregate.Retired {
		t.Errorf("metrics rollup missing: %+v", snap.Machine)
	}
}

// TestSessionRunMachineValidates: a topology no kernel can run is
// refused upfront, by RunMachine and Serve alike and with one error. A
// quantum near 2^64 would wrap the barrier clock onto exec.NoDeadline,
// after which a dispatched serve cell spins until MaxSteps.
func TestSessionRunMachineValidates(t *testing.T) {
	for _, topo := range []Topology{
		{Cores: -1},
		{Cores: 2, Quantum: math.MaxUint64},
		{Cores: 2, Quantum: 1 << 63},
	} {
		s, err := NewSession(WithTopology(topo))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultServiceConfig()
		cfg.Requests = 10
		cfg.Policies = []ServicePolicy{PolicyAgnostic}
		start := time.Now()
		_, runErr := s.RunMachine(MachineRun{Spec: PointerChase{Nodes: 64, Hops: 8, Instances: 1}})
		_, serveErr := s.Serve(context.Background(), cfg)
		if runErr == nil || serveErr == nil || runErr.Error() != serveErr.Error() {
			t.Errorf("cores %d, quantum %d: RunMachine returned %v and Serve %v, want one validation error",
				topo.Cores, topo.Quantum, runErr, serveErr)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("cores %d, quantum %d: refusing took %v", topo.Cores, topo.Quantum, d)
		}
	}
}
