package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
)

func TestSessionDefaults(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology().Machine.Seed != DefaultTopology(1).Machine.Seed {
		t.Error("default session machine differs from the reference topology's")
	}
	if s.CacheDir() != "" {
		t.Error("cache enabled without WithCache")
	}
	if len(s.ExperimentIDs()) < 20 {
		t.Errorf("experiment registry short: %v", s.ExperimentIDs())
	}
}

func TestSessionOptions(t *testing.T) {
	m := DefaultTopology(1).Machine
	m.MemBytes = 128 << 20
	s, err := NewSession(WithTopology(Topology{Cores: 1, Machine: m}), WithSeed(99), WithParallelism(4), WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Topology(); got.Cores != 1 || got.Machine.MemBytes != 128<<20 {
		t.Errorf("WithTopology lost: %d cores, %d bytes", got.Cores, got.Machine.MemBytes)
	}
	if s.Topology().Machine.Seed != 99 {
		t.Errorf("seed = %d, want 99 (WithSeed applies after WithTopology)", s.Topology().Machine.Seed)
	}
	if s.CacheDir() == "" {
		t.Error("WithCache ignored")
	}
}

func TestSessionRunAllDeterministicAndCached(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	seq, err := NewSession(WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.RunAll(ctx, "E1", "E13")
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSession(WithCache(dir), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.RunAll(ctx, "E1", "E13")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("result counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String()+a[i].MetricsString() != b[i].String()+b[i].MetricsString() {
			t.Errorf("result %d diverged between sequential and parallel sessions", i)
		}
	}
	// The second session ran entirely from the first session's cache.
	reports, err := par.Sweep(ctx, []string{"E1", "E13"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.CacheHit {
			t.Errorf("%s not served from warm cache", r.Job.ID)
		}
	}
}

func TestSessionRunUnknownID(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background(), "Z9")
	if err == nil || !strings.Contains(err.Error(), "valid IDs") {
		t.Errorf("unknown ID error unhelpful: %v", err)
	}
}

// TestSweepRefusesNoSeeds pins that a sweep over fewer than one seed is
// an error, not a silent one-seed sweep.
func TestSweepRefusesNoSeeds(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range []int{0, -3} {
		reports, err := s.Sweep(context.Background(), []string{"E1"}, seeds)
		want := fmt.Sprintf("seeds must be ≥ 1 (got %d)", seeds)
		if err == nil || !strings.Contains(err.Error(), want) || reports != nil {
			t.Errorf("Sweep(seeds=%d) = %d report(s), %v; want an error containing %q", seeds, len(reports), err, want)
		}
	}
}

// TestInvalidMachineIsAnError pins that a machine no core can be built on
// reaches the caller as an error from every session entry point that
// builds one, never as a panic in a runner goroutine.
func TestInvalidMachineIsAnError(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		spoil func(*Machine)
		want  string
	}{
		{"zero L1 ways", func(m *Machine) { m.Mem.L1Ways = 0 }, "mem: L1 ways 0 outside [1, 16]"},
		{"L1 set count", func(m *Machine) { m.Mem.L1Size = 3 << 10 }, "mem: L1 set count 6 must be a power of two"},
		{"zero ALU cost", func(m *Machine) { m.CPU.CostALU = 0 }, "cpu: instruction costs must be nonzero"},
		// The harness spec's data fits in 16 512 bytes; its four stacks do not.
		{"stacks beyond MemBytes", func(m *Machine) { m.MemBytes = 16512 }, "mem: out of simulated memory"},
	} {
		topo := DefaultTopology(1)
		tc.spoil(&topo.Machine)
		s, err := NewSession(WithTopology(topo))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultServiceConfig()
		cfg.Requests = 10
		cfg.Policies = []ServicePolicy{PolicyAgnostic}
		_, serveErr := s.Serve(ctx, cfg)
		_, runErr := s.Run(ctx, "E1")
		_, harnessErr := s.NewHarness(PointerChase{Nodes: 64, Hops: 8, Instances: 4})
		for entry, err := range map[string]error{"Serve": serveErr, "Run(E1)": runErr, "NewHarness": harnessErr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s returned %v, want an error containing %q", tc.name, entry, err, tc.want)
			}
		}
	}
}

func TestSessionPipelineAndTracer(t *testing.T) {
	ring := NewTraceRing(1 << 12)
	s, err := NewSession(WithObservability(ObservabilityConfig{Tracer: ring}))
	if err != nil {
		t.Fatal(err)
	}
	h, img, err := s.Pipeline("chase", DefaultPipelineOptions(),
		PointerChase{Nodes: 2048, Hops: 500, Instances: 4})
	if err != nil {
		t.Fatal(err)
	}
	if img.Pipe == nil || img.Pipe.Primary.Yields == 0 {
		t.Fatal("pipeline did not instrument")
	}
	ts, err := h.Tasks(img, "chase", Primary, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewExecutor(h, img, ExecConfig{}).RunSymmetric(ts.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Error("empty stats")
	}
	if ring.Total() == 0 {
		t.Error("session tracer saw no events")
	}
}

func TestSessionObservability(t *testing.T) {
	ring := NewTraceRing(1 << 12)
	reg := &MetricsRegistry{}
	s, err := NewSession(WithObservability(ObservabilityConfig{Tracer: ring, Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	h, img, err := s.Pipeline("chase", DefaultPipelineOptions(),
		PointerChase{Nodes: 2048, Hops: 500, Instances: 2},
		Compute{Iters: 20000, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline harvests the profiling run's sampler overhead.
	if reg.Sampler.Samples == 0 {
		t.Error("Pipeline did not fill sampler metrics")
	}
	primary, err := h.Tasks(img, "chase", Primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	scavs, err := h.Tasks(img, "compute", Scavenger, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := s.NewExecutor(h, img, ExecConfig{})
	if e.Cfg.Metrics != reg || e.Cfg.Tracer != Tracer(ring) {
		t.Fatal("NewExecutor did not inject the session observability")
	}
	st, err := e.RunDualMode(primary.Tasks[0], scavs.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	e.CaptureMetrics()
	snap := s.MetricsSnapshot()
	if snap.Exec.Episodes != st.Episodes || snap.Exec.EpisodeDur.Count != st.Episodes {
		t.Errorf("episode histogram (%d dur / %d episodes) does not reconcile with stats (%d)",
			snap.Exec.EpisodeDur.Count, snap.Exec.Episodes, st.Episodes)
	}
	if snap.CPU.Retired == 0 || snap.Mem.Accesses[LevelL1] == 0 {
		t.Error("CaptureMetrics harvested nothing")
	}
	// The snapshot renders as a mergeable stats table and a flat metric
	// map whose episode entries carry the same totals.
	if !strings.Contains(snap.Table().String(), "episodes") {
		t.Error("observability table missing episode rows")
	}
	flat := map[string]float64{}
	snap.Metrics(flat)
	if flat["obs.exec.episodes"] != float64(st.Episodes) {
		t.Errorf("flat obs.exec.episodes = %v, want %d", flat["obs.exec.episodes"], st.Episodes)
	}
}

func TestSessionExportTrace(t *testing.T) {
	ring := NewTraceRing(256)
	var sink bytes.Buffer
	s, err := NewSession(WithObservability(ObservabilityConfig{Tracer: ring}))
	if err != nil {
		t.Fatal(err)
	}
	h, img, err := s.Pipeline("chase", DefaultPipelineOptions(),
		PointerChase{Nodes: 2048, Hops: 300, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := h.Tasks(img, "chase", Primary, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewExecutor(h, img, ExecConfig{}).RunSymmetric(ts.Tasks); err != nil {
		t.Fatal(err)
	}
	if err := s.ExportTrace(&sink, ChromeTraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(sink.Bytes(), &events); err != nil {
		t.Fatalf("ExportTrace did not produce a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace export")
	}

	// A nil writer is an error; so is a non-ring tracer.
	if err := s.ExportTrace(nil, ChromeTraceOptions{}); err == nil {
		t.Error("ExportTrace with nowhere to write must error")
	}
	s2, _ := NewSession()
	var buf bytes.Buffer
	if err := s2.ExportTrace(&buf, ChromeTraceOptions{}); err == nil {
		t.Error("ExportTrace without a ring tracer must error")
	}
}

// TestSessionVerification: every image Pipeline returns has passed
// Harness.Instrument's static verification, so re-running the verifier
// over it reads clean across every instruction. The refusal side is
// internal/core's TestInstrumentGatesOnCheck.
func TestSessionVerification(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	h, img, err := s.Pipeline("chase", DefaultPipelineOptions(),
		PointerChase{Nodes: 2048, Hops: 500, Instances: 2})
	if err != nil {
		t.Fatalf("verified pipeline failed: %v", err)
	}
	var rep *CheckReport = check.Program(h.Sc.Prog, img.Prog, img.Pipe.OldToNew, check.Options{})
	if !rep.Clean() {
		t.Fatalf("report not clean:\n%s", rep)
	}
	if rep.Checked != len(img.Prog.Instrs) {
		t.Errorf("Checked=%d, want %d", rep.Checked, len(img.Prog.Instrs))
	}
}
