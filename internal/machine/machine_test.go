package machine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/mem"
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

// A 1-core machine must reproduce the existing single-core engine
// bit-for-bit: same stats, same hierarchy counters, same trace — the
// "golden tables still hold" guarantee of the API re-cut.
func TestSingleCoreMatchesEngine(t *testing.T) {
	for _, mode := range []Mode{ModeSymmetric, ModeSolo} {
		// Reference: the classic harness path, run to completion.
		mach := core.DefaultMachine()
		h, err := core.NewHarness(mach, chaseSpec())
		if err != nil {
			t.Fatal(err)
		}
		img := h.Baseline()
		ring := trace.NewRing(1 << 12)
		ex := h.NewExecutor(img, exec.Config{Tracer: ring})
		ts, err := h.Tasks(img, "chase", coro.Primary, map[Mode]int{ModeSymmetric: 0, ModeSolo: 1}[mode])
		if err != nil {
			t.Fatal(err)
		}
		var refSt exec.Stats
		if mode == ModeSolo {
			refSt, err = ex.RunSolo(ts.Tasks[0])
		} else {
			refSt, err = ex.RunSymmetric(ts.Tasks)
		}
		if err != nil {
			t.Fatal(err)
		}
		refMem := ex.Core.Hier.Stats

		// Machine path, 1 core.
		m, err := New(Topology{Cores: 1, Machine: core.DefaultMachine()}, RunConfig{Spec: chaseSpec(), Mode: mode, TraceN: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(st.Cores) != 1 {
			t.Fatalf("mode %v: %d core sections", mode, len(st.Cores))
		}
		if !reflect.DeepEqual(st.Cores[0].Exec, refSt) {
			t.Errorf("mode %v: stats diverged from engine\n got %+v\nwant %+v", mode, st.Cores[0].Exec, refSt)
		}
		if st.Cores[0].Mem != refMem {
			t.Errorf("mode %v: hierarchy counters diverged", mode)
		}
		if st.LLC != (mem.LLCStats{}) {
			t.Errorf("mode %v: 1-core machine used the shared LLC: %+v", mode, st.LLC)
		}
		got, want := m.TraceRing(0).Events(), ring.Events()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %v: traces diverged (%d vs %d events)", mode, len(got), len(want))
		}
	}
}

// ModeSMT under the kernel must match the classic smt.Run discipline on
// a single core.
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
	if !reflect.DeepEqual(st.Cores[0].SMT, refSt) {
		t.Errorf("SMT stats diverged\n got %+v\nwant %+v", st.Cores[0].SMT, refSt)
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
	if _, err := New(Topology{Cores: 4, PerCoreMem: make([]mem.Config, 3)}, RunConfig{Spec: chaseSpec()}); err == nil {
		t.Error("PerCoreMem length mismatch accepted")
	}
	topo := DefaultTopology(2)
	rc := RunConfig{Spec: chaseSpec(), Exec: exec.Config{Tracer: trace.NewRing(8)}}
	if _, err := New(topo, rc); err == nil {
		t.Error("shared tracer across cores accepted")
	}
}

// Multi-core runs make progress, produce per-core sections in index
// order, and the shared LLC sees traffic.
func TestMultiCoreRuns(t *testing.T) {
	m, err := New(DefaultTopology(4), RunConfig{Spec: chaseSpec(), Mode: ModeSymmetric, Metrics: true})
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
	for i, cs := range st.Cores {
		if cs.Core != i {
			t.Errorf("core section %d has id %d", i, cs.Core)
		}
		if cs.Exec.Retired == 0 {
			t.Errorf("core %d retired nothing", i)
		}
		if cs.Metrics.CPU.Retired != cs.Exec.Retired {
			t.Errorf("core %d: metrics retired %d != stats %d", i, cs.Metrics.CPU.Retired, cs.Exec.Retired)
		}
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

// Per-core registries must record request completion latencies under
// the resumable engines — exec.Ticker for the coroutine modes and
// smt.Runner for ModeSMT — so many-core service runs report latencies
// exactly like the classic single-core paths do.
func TestManyCoreRequestLatencyMetrics(t *testing.T) {
	for _, mode := range []Mode{ModeSymmetric, ModeSMT} {
		m, err := New(DefaultTopology(2), RunConfig{Spec: chaseSpec(), Mode: mode, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for i, cs := range st.Cores {
			want := uint64(4) // chaseSpec instances per core
			if cs.Metrics.Sched.Requests != want {
				t.Errorf("mode %v core %d: Sched.Requests = %d, want %d", mode, i, cs.Metrics.Sched.Requests, want)
			}
			if cs.Metrics.Sched.RequestLatency.Count != want {
				t.Errorf("mode %v core %d: latency histogram has %d observations, want %d",
					mode, i, cs.Metrics.Sched.RequestLatency.Count, want)
			}
			if cs.Metrics.Sched.RequestLatency.Max == 0 {
				t.Errorf("mode %v core %d: zero max latency", mode, i)
			}
		}
	}
}
