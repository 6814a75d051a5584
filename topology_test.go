package repro

import (
	"testing"
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

func TestSessionRunMachineValidates(t *testing.T) {
	s, err := NewSession(WithTopology(Topology{Cores: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunMachine(MachineRun{Spec: PointerChase{Nodes: 64, Hops: 8, Instances: 1}}); err == nil {
		t.Error("negative core count accepted")
	}
}
