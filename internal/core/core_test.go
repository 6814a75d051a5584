package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func testHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(DefaultMachine(),
		workloads.PointerChase{Nodes: 2048, Hops: 600, Instances: 4})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEndToEndPipeline(t *testing.T) {
	h := testHarness(t)

	prof, sampler, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	if len(sampler.Samples) == 0 || len(prof.Sites) == 0 {
		t.Fatal("profiling produced nothing")
	}

	img, err := h.Instrument(prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if img.Pipe == nil || img.Pipe.Primary.Yields == 0 {
		t.Fatal("instrumentation inserted nothing")
	}
	if len(img.Prog.Instrs) <= len(h.Sc.Prog.Instrs) {
		t.Fatal("instrumented program should be longer")
	}

	ts, err := h.Tasks(img, "chase", coro.Primary, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.NewExecutor(img, exec.Config{}).RunSymmetric(ts.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}

	// Compare against baseline: interleaving must help.
	bts, err := h.Tasks(h.Baseline(), "chase", coro.Primary, 4)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := h.NewExecutor(h.Baseline(), exec.Config{}).RunSymmetric(bts.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := bts.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Efficiency() <= bst.Efficiency() {
		t.Errorf("pipeline efficiency %.3f did not beat baseline %.3f",
			st.Efficiency(), bst.Efficiency())
	}
}

func TestTasksCountSemantics(t *testing.T) {
	h := testHarness(t)
	base := h.Baseline()
	ts, err := h.Tasks(base, "chase", coro.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tasks) != 4 {
		t.Errorf("count 0 should mean all instances, got %d", len(ts.Tasks))
	}
	ts, err = h.Tasks(base, "chase", coro.Scavenger, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tasks) != 2 || ts.Tasks[0].Mode != coro.Scavenger {
		t.Error("count/mode semantics wrong")
	}
	if _, err := h.Tasks(base, "nope", coro.Primary, 1); err == nil {
		t.Error("unknown part accepted")
	}
}

func TestValidateCatchesWrongResults(t *testing.T) {
	h := testHarness(t)
	ts, err := h.Tasks(h.Baseline(), "chase", coro.Primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts.Tasks[0].Ctx.Halted = true
	ts.Tasks[0].Ctx.Result = 12345678 // not the reference value
	if err := ts.Validate(); err == nil {
		t.Error("Validate accepted a wrong result")
	}
}

func TestMergeRenumbers(t *testing.T) {
	h := testHarness(t)
	a, _ := h.Tasks(h.Baseline(), "chase", coro.Primary, 2)
	b, _ := h.Tasks(h.Baseline(), "chase", coro.Scavenger, 2)
	a.Merge(b)
	if len(a.Tasks) != 4 {
		t.Fatalf("merged size %d", len(a.Tasks))
	}
	for i, task := range a.Tasks {
		if task.Ctx.ID != i {
			t.Errorf("task %d has ID %d", i, task.Ctx.ID)
		}
	}
}

func TestFromRewriteRemapsEntries(t *testing.T) {
	h := testHarness(t)
	// Identity rewrite with one insertion before the entry.
	rw := instrument.NewRewriter(h.Sc.Prog)
	rw.InsertBefore(h.Sc.Parts[0].Entry, isa.Instr{Op: isa.OpNop})
	prog, oldToNew, err := rw.Apply()
	if err != nil {
		t.Fatal(err)
	}
	img := h.FromRewrite(prog, oldToNew)
	if img.Entries["chase"] != h.Sc.Parts[0].Entry+1 {
		t.Errorf("entry not remapped: %d", img.Entries["chase"])
	}
}

func TestProfilePartsValidates(t *testing.T) {
	h := testHarness(t)
	if _, _, _, err := h.ProfileParts(h.Mach.Sampling, "nope"); err == nil {
		t.Error("unknown part accepted")
	}
	prof, sampler, cpuCore, err := h.ProfileParts(h.Mach.Sampling, "chase")
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || sampler == nil || cpuCore == nil {
		t.Fatal("nil outputs")
	}
	if cpuCore.Counters.TotalRetired == 0 {
		t.Error("profiling run retired nothing")
	}
}

func TestDefaultMachine(t *testing.T) {
	m := DefaultMachine()
	if err := m.Mem.Validate(); err != nil {
		t.Error(err)
	}
	if err := m.CPU.Validate(); err != nil {
		t.Error(err)
	}
	if NS(3000) != 1000 {
		t.Error("NS conversion wrong")
	}
}

// TestHarnessAllocatesTouchedBytesOnly is the byte budget of the
// demand-backed memory image: composing on the default 256 MiB machine
// costs what the workload touches, not the image's logical size.
func TestHarnessAllocatesTouchedBytesOnly(t *testing.T) {
	composeBytes := func(spec workloads.Spec) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := NewHarness(DefaultMachine(), spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if h.Sc.Mem.Size() != DefaultMachine().MemBytes {
			t.Fatalf("image size %d, want the machine's %d", h.Sc.Mem.Size(), DefaultMachine().MemBytes)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	if n := composeBytes(workloads.Compute{Iters: 1000, Instances: 2}); n >= 1<<20 {
		t.Errorf("composing Compute allocated %d bytes, want < 1 MiB", n)
	}
	// 16384 nodes x 64 B = 1 MiB of chain; doubling regrowth costs at most
	// 4x the footprint.
	if n := composeBytes(workloads.PointerChase{Nodes: 16384, Hops: 100, Instances: 1}); n >= 4<<20 {
		t.Errorf("composing a 1 MiB PointerChase allocated %d bytes, want < 4 MiB", n)
	}
}

// TestCountingLoopInterpretsBoundedLaps pins lap skipping (cpu.sbLap)
// through the executor, in integers: a 10⁹-iteration Compute loop — as
// compiled, and as the scavenger pass instruments it, a CYIELD in every
// lap — runs to its halt under exec.Flat with the host-reference result
// while the superblock tier interprets only a handful of laps per entry
// and retires the rest in closed form; and a run that is too long for
// its MaxSteps still stops on exactly that instruction.
func TestCountingLoopInterpretsBoundedLaps(t *testing.T) {
	const iters = 1_000_000_000
	h, err := NewHarness(DefaultMachine(),
		workloads.PointerChase{Nodes: 256, Hops: 64, Instances: 1},
		workloads.Compute{Iters: iters, Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := h.Instrument(prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	for _, in := range instrumented.Prog.Instrs { // the chase part gets YIELDs, never CYIELDs
		if in.Op == isa.OpCYield {
			yields++
		}
	}
	if yields == 0 {
		t.Fatal("the scavenger pass left the compute loop without a CYIELD")
	}

	for _, tc := range []struct {
		name    string
		img     *Image
		retired uint64
	}{
		{"baseline", h.Baseline(), 4*iters + 2},
		// The part's entry stays on the loop's first instruction, past the
		// CYIELDs inserted at its head: the first lap retires none.
		{"instrumented", instrumented, (4+uint64(yields))*iters + 2 - uint64(yields)},
	} {
		ts, err := h.Tasks(tc.img, "compute", coro.Primary, 1)
		if err != nil {
			t.Fatal(err)
		}
		ex := h.NewExecutor(tc.img, exec.Config{MaxSteps: 1 << 40})
		st, err := ex.RunSolo(ts.Tasks[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := ts.Validate(); err != nil || !ts.Tasks[0].Ctx.Halted {
			t.Fatalf("%s: halted %v, %v", tc.name, ts.Tasks[0].Ctx.Halted, err)
		}
		if st.Retired != tc.retired {
			t.Errorf("%s: retired %d instructions, want %d", tc.name, st.Retired, tc.retired)
		}
		// All but the lap that enters mid-loop go through the trace.
		sb := ex.Core.SuperblockStats()
		if sb.Activations == 0 || sb.LapsInterpreted > 4*sb.Activations || sb.LapsInterpreted+sb.LapsSkipped < iters-1 {
			t.Errorf("%s: %d laps interpreted and %d skipped over %d trace entries, want ≤ 4 interpreted per entry and %d in all",
				tc.name, sb.LapsInterpreted, sb.LapsSkipped, sb.Activations, iters-1)
		}
	}

	const maxSteps = 1_000_003 // mid-lap
	ts, err := h.Tasks(instrumented, "compute", coro.Primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.NewExecutor(instrumented, exec.Config{MaxSteps: maxSteps}).RunSolo(ts.Tasks[0])
	if !errors.Is(err, exec.ErrFuelExhausted) || ts.Tasks[0].Ctx.Retired != maxSteps {
		t.Errorf("over-long loop: %v after %d instructions, want ErrFuelExhausted after exactly %d", err, ts.Tasks[0].Ctx.Retired, maxSteps)
	}
}
