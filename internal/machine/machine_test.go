package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func chaseSpec() workloads.Spec {
	return workloads.PointerChase{Nodes: 1024, Hops: 400, Instances: 4}
}

// newSMTCore mirrors the kernel's ModeSMT core construction.
func newSMTCore(t *testing.T, mach core.Machine, h *core.Harness, img *core.Image) *cpu.Core {
	t.Helper()
	return cpu.MustNewCore(mach.CPU, img.Prog, h.Sc.Mem, mem.MustNewHierarchy(mach.Mem))
}

// A 1-core machine must reproduce the single-core engine bit-for-bit
// under every discipline: core 0's stats equal the Harness run's on the
// same machine, and so do the trace and the registry's core counters —
// the "golden tables still hold" guarantee of the API re-cut.
func TestSingleCoreMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		run  func(h *core.Harness, img *core.Image, cfg exec.Config) (exec.Stats, error)
	}{
		{ModeSolo, func(h *core.Harness, img *core.Image, cfg exec.Config) (exec.Stats, error) {
			return h.RunSolo(img, "chase", cfg)
		}},
		{ModeSymmetric, func(h *core.Harness, img *core.Image, cfg exec.Config) (exec.Stats, error) {
			return h.RunSymmetric(img, "chase", 0, cfg)
		}},
		{ModeSMT, func(h *core.Harness, img *core.Image, cfg exec.Config) (exec.Stats, error) {
			return h.RunSMT(img, "chase", 0, cfg)
		}},
	} {
		mach := core.DefaultMachine()
		h, err := core.NewHarness(mach, chaseSpec())
		if err != nil {
			t.Fatal(err)
		}
		ring, reg := trace.NewRing(1<<12), &metrics.Registry{}
		refSt, err := tc.run(h, h.Baseline(), exec.Config{Tracer: ring, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}

		mring, mreg := trace.NewRing(1<<12), &metrics.Registry{}
		m, err := New(Topology{Cores: 1, Machine: mach},
			RunConfig{Spec: chaseSpec(), Mode: tc.mode, Exec: exec.Config{Tracer: mring, Metrics: mreg}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		if len(st.Cores) != 1 {
			t.Fatalf("mode %v: %d core sections", tc.mode, len(st.Cores))
		}
		if !reflect.DeepEqual(st.Cores[0].Exec, refSt) {
			t.Errorf("mode %v: stats diverged from engine\n got %+v\nwant %+v", tc.mode, st.Cores[0].Exec, refSt)
		}
		if mreg.Mem != reg.Mem || mreg.CPU != reg.CPU {
			t.Errorf("mode %v: core counters diverged", tc.mode)
		}
		if st.LLC != (mem.LLCStats{}) {
			t.Errorf("mode %v: 1-core machine used the shared LLC: %+v", tc.mode, st.LLC)
		}
		got, want := mring.Events(), ring.Events()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %v: traces diverged (%d vs %d events)", tc.mode, len(got), len(want))
		}
	}
}

// ModeSMT under the kernel must match smt.Run on a single core, down to
// the hierarchy's counters, and keep the SMT accounting law: every
// cycle is busy or every context sat blocked, Busy + Stall == Cycles.
func TestSingleCoreSMTMatchesEngine(t *testing.T) {
	mach := core.DefaultMachine()
	h, err := core.NewHarness(mach, chaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	img := h.Baseline()
	cpuCore := newSMTCore(t, mach, h, img)
	ts, err := h.Tasks(img, "chase", coro.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*coro.Context, len(ts.Tasks))
	for i, tk := range ts.Tasks {
		ctxs[i] = tk.Ctx
	}
	refSt, err := smt.Run(cpuCore, smt.Config{Contexts: len(ctxs)}, ctxs)
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(Topology{Cores: 1, Machine: core.DefaultMachine()}, RunConfig{Spec: chaseSpec(), Mode: ModeSMT})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cores[0]
	if !reflect.DeepEqual(cs.Exec, refSt) {
		t.Errorf("SMT stats diverged\n got %+v\nwant %+v", cs.Exec, refSt)
	}
	if cs.Mem != cpuCore.Hier.Stats {
		t.Error("SMT hierarchy counters diverged")
	}
	if cs.Exec.Stall == 0 || cs.Exec.Busy+cs.Exec.Stall != cs.Exec.Cycles {
		t.Errorf("SMT accounting: busy %d + stall %d != %d cycles", cs.Exec.Busy, cs.Exec.Stall, cs.Exec.Cycles)
	}
}

// Exec.MaxSteps is every mode's fuel: a budget too small for the run
// stops it with exec.ErrFuelExhausted whatever the discipline.
func TestEveryModeTakesExecFuel(t *testing.T) {
	for _, mode := range []Mode{ModeSolo, ModeSymmetric, ModeSMT} {
		m, err := New(Topology{Cores: 1}, RunConfig{Spec: chaseSpec(), Mode: mode, Exec: exec.Config{MaxSteps: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); !errors.Is(err, exec.ErrFuelExhausted) {
			t.Errorf("mode %v with 100 steps of fuel: err = %v, want exec.ErrFuelExhausted", mode, err)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Topology{Cores: 0}, RunConfig{Spec: chaseSpec()}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(Topology{Cores: 2}, RunConfig{}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := New(Topology{Cores: 2}, RunConfig{Spec: chaseSpec(), Mode: Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
	// A solo core runs one instance; a larger task count would be
	// silently ignored, so it is refused naming both fields.
	_, err := New(Topology{Cores: 1}, RunConfig{Spec: chaseSpec(), Mode: ModeSolo, Tasks: 2})
	if err == nil || !strings.Contains(err.Error(), "Tasks") || !strings.Contains(err.Error(), "Mode") {
		t.Errorf("ModeSolo with Tasks 2: err = %v, want a refusal naming Tasks and Mode", err)
	}
	if _, err := New(Topology{Cores: 1}, RunConfig{Spec: chaseSpec(), Mode: ModeSolo, Tasks: 1}); err != nil {
		t.Errorf("ModeSolo with Tasks 1 refused: %v", err)
	}
	// One tracer and one registry observe every core.
	rc := RunConfig{Spec: chaseSpec(), Exec: exec.Config{Tracer: trace.NewRing(8), Metrics: &metrics.Registry{}}}
	if _, err := New(DefaultTopology(2), rc); err != nil {
		t.Errorf("shared tracer and registry across cores refused: %v", err)
	}
}

// Multi-core runs make progress, produce per-core sections in index
// order, the shared LLC sees traffic, and the shared registry holds
// machine-wide totals that reconcile with the per-core sections.
func TestMultiCoreRuns(t *testing.T) {
	reg := &metrics.Registry{}
	m, err := New(DefaultTopology(4), RunConfig{Spec: chaseSpec(), Mode: ModeSymmetric, Exec: exec.Config{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cores) != 4 {
		t.Fatalf("%d core sections, want 4", len(st.Cores))
	}
	var dram, peak uint64
	for i, cs := range st.Cores {
		if cs.Core != i {
			t.Errorf("core section %d has id %d", i, cs.Core)
		}
		if cs.Exec.Retired == 0 {
			t.Errorf("core %d retired nothing", i)
		}
		dram += cs.Mem.Accesses[mem.LevelDRAM]
		peak = max(peak, cs.Mem.MSHRPeak)
	}
	if reg.CPU.Retired != st.Aggregate.Retired || reg.Machine.Retired != st.Aggregate.Retired {
		t.Errorf("registry retired cpu %d, machine %d; aggregate %d", reg.CPU.Retired, reg.Machine.Retired, st.Aggregate.Retired)
	}
	if reg.Mem.DRAMAccesses != dram || reg.Mem.MSHRHighWater != peak {
		t.Errorf("registry mem dram %d, mshr peak %d; per-core sum %d, max %d",
			reg.Mem.DRAMAccesses, reg.Mem.MSHRHighWater, dram, peak)
	}
	if st.LLC.Hits+st.LLC.Misses == 0 {
		t.Error("shared LLC saw no traffic")
	}
	if st.Quanta == 0 || st.Cycles == 0 {
		t.Errorf("degenerate rollup: %+v", st)
	}
	if st.Aggregate.Retired != 4*st.Cores[0].Exec.Retired {
		t.Errorf("aggregate retired %d != 4× per-core %d", st.Aggregate.Retired, st.Cores[0].Exec.Retired)
	}
	// Seeds are strided per core.
	if st.Cores[1].Seed != st.Cores[0].Seed+CoreSeedStride {
		t.Errorf("seed stride broken: %d vs %d", st.Cores[1].Seed, st.Cores[0].Seed)
	}
}

// The shared registry must record every core's request completion
// latencies under the one resumable closed-loop run, exec.Ticker, in
// every mode — so many-core service runs report
// latencies exactly like the classic single-core paths do.
func TestManyCoreRequestLatencyMetrics(t *testing.T) {
	for _, mode := range []Mode{ModeSymmetric, ModeSMT} {
		reg := &metrics.Registry{}
		m, err := New(DefaultTopology(2), RunConfig{Spec: chaseSpec(), Mode: mode, Exec: exec.Config{Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		const want = 2 * 4 // 2 cores × chaseSpec's 4 instances
		if reg.Sched.Requests != want {
			t.Errorf("mode %v: Sched.Requests = %d, want %d", mode, reg.Sched.Requests, want)
		}
		if reg.Sched.RequestLatency.Count != want {
			t.Errorf("mode %v: latency histogram has %d observations, want %d",
				mode, reg.Sched.RequestLatency.Count, want)
		}
		if reg.Sched.RequestLatency.Max == 0 {
			t.Errorf("mode %v: zero max latency", mode)
		}
	}
}

// Run on a finished machine steps nothing and records nothing twice:
// the step-then-Run pattern and a repeated Run return the same Stats
// and leave the same registry, request latencies counted once per task.
func TestRunIsIdempotent(t *testing.T) {
	for _, mode := range []Mode{ModeSymmetric, ModeSMT} {
		reg := &metrics.Registry{}
		m, err := New(DefaultTopology(2), RunConfig{Spec: chaseSpec(), Mode: mode, Exec: exec.Config{Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			if done, err = m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		first, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		second, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("mode %v: a second Run changed the Stats", mode)
		}
		if reg.Snapshot() != snap {
			t.Errorf("mode %v: a second Run changed the registry", mode)
		}
		if got := reg.Sched.Requests; got != 8 {
			t.Errorf("mode %v: Sched.Requests = %d after two Runs, want 8 (4 per core)", mode, got)
		}
	}
}

// One registry observing two machines holds running totals: Mem, CPU,
// Exec and Sched add up over both runs, while the Machine section
// describes the most recent machine.
func TestRegistryTotalsAcrossMachines(t *testing.T) {
	reg := &metrics.Registry{}
	var retired, dram, episodes uint64
	var last Stats
	for _, mode := range []Mode{ModeSymmetric, ModeSMT} {
		m, err := New(DefaultTopology(2), RunConfig{Spec: chaseSpec(), Mode: mode, Exec: exec.Config{Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		if last, err = m.Run(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		retired += last.Aggregate.Retired
		for _, cs := range last.Cores {
			dram += cs.Mem.Accesses[mem.LevelDRAM]
			episodes += cs.Exec.Episodes
		}
	}
	if reg.CPU.Retired != retired {
		t.Errorf("CPU.Retired = %d, want the sum over both runs %d", reg.CPU.Retired, retired)
	}
	if reg.Mem.DRAMAccesses != dram {
		t.Errorf("Mem.DRAMAccesses = %d, want the sum over both runs %d", reg.Mem.DRAMAccesses, dram)
	}
	if reg.Exec.Episodes != episodes {
		t.Errorf("Exec.Episodes = %d, want the sum over both runs %d", reg.Exec.Episodes, episodes)
	}
	if reg.Sched.Requests != 16 {
		t.Errorf("Sched.Requests = %d, want 16 (2 runs × 2 cores × 4 tasks)", reg.Sched.Requests)
	}
	if reg.Machine.Retired != last.Aggregate.Retired {
		t.Errorf("Machine.Retired = %d, want the last run's %d", reg.Machine.Retired, last.Aggregate.Retired)
	}
}
