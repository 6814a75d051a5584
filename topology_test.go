package repro

import (
	"bytes"
	"context"
	"encoding/json"
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
	// The session registry holds machine-wide totals that reconcile
	// with the per-core sections.
	snap := s.MetricsSnapshot()
	if snap.Machine.Cores != 2 || snap.Machine.Retired != st.Aggregate.Retired {
		t.Errorf("metrics rollup missing: %+v", snap.Machine)
	}
	if snap.CPU.Retired != st.Aggregate.Retired {
		t.Errorf("CPU.Retired = %d, aggregate retired %d", snap.CPU.Retired, st.Aggregate.Retired)
	}
	if snap.Sched.Requests != 2*2 || snap.Sched.RequestLatency.Count != 2*2 {
		t.Errorf("Sched requests %d, latencies %d; want one per task, 4",
			snap.Sched.Requests, snap.Sched.RequestLatency.Count)
	}
	var l1, dram, hwPrefetches, writebacks, peak, episodes uint64
	for _, cs := range st.Cores {
		l1 += cs.Mem.Accesses[LevelL1]
		dram += cs.Mem.Accesses[LevelDRAM]
		hwPrefetches += cs.Mem.HWPrefetches
		writebacks += cs.Mem.Writebacks
		peak = max(peak, cs.Mem.MSHRPeak)
		episodes += cs.Exec.Episodes
	}
	if l1 == 0 || dram == 0 {
		t.Fatalf("cores saw no L1 hits (%d) or DRAM accesses (%d); the sums are vacuous", l1, dram)
	}
	m := snap.Mem
	if m.Accesses[LevelL1] != l1 || m.Accesses[LevelDRAM] != dram || m.HWPrefetches != hwPrefetches ||
		m.Writebacks != writebacks || m.MSHRPeak != peak {
		t.Errorf("Mem %+v is not the per-core sum (l1 %d, dram %d, hw prefetches %d, writebacks %d, mshr peak %d)",
			m, l1, dram, hwPrefetches, writebacks, peak)
	}
	// Hide episodes need dual mode, which machine cores do not run.
	if snap.Exec.Episodes != episodes {
		t.Errorf("Exec.Episodes = %d, per-core sum %d", snap.Exec.Episodes, episodes)
	}
}

// A 2-core RunMachine traces through the session's ring, and
// ExportTrace draws one process row per core.
func TestSessionRunMachineExportTrace(t *testing.T) {
	ring := NewTraceRing(1 << 12)
	s, err := NewSession(WithTopology(DefaultTopology(2)),
		WithObservability(ObservabilityConfig{Tracer: ring}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunMachine(MachineRun{
		Spec: PointerChase{Nodes: 512, Hops: 100, Instances: 2},
		Mode: MachineSymmetric,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.ExportTrace(&buf, ChromeTraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, ev := range events {
		if ev["name"] == "process_name" {
			pids[ev["pid"].(float64)] = true
		}
	}
	if len(pids) != 2 || !pids[0] || !pids[1] {
		t.Errorf("process rows %v, want one per core (pids 0 and 1)", pids)
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
