package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
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

// TestInstrumentGatesOnCheck: the verifier Instrument runs on every
// image passes the reference toolchain's output and refuses the same
// image with a live register cleared from a yield's save mask, as a
// *check.ReportError attributed to the liveness rule.
func TestInstrumentGatesOnCheck(t *testing.T) {
	h := testHarness(t)
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatalf("reference toolchain output refused: %v", err)
	}
	bad := &Image{Prog: img.Prog.Clone(), Entries: img.Entries, Pipe: img.Pipe}
	cleared := false
	for p, in := range bad.Prog.Instrs {
		if in.Op.IsYield() && in.LiveMask().Has(1) {
			bad.Prog.Instrs[p].Imm &^= int64(1) << 1
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("no yield saves r1")
	}
	var rerr *check.ReportError
	if err := h.verify(bad); !errors.As(err, &rerr) {
		t.Fatalf("want *check.ReportError, got %T (%v)", err, err)
	}
	if !rerr.Report.HasRule(check.RuleLiveness) {
		t.Errorf("cleared mask bit not attributed to liveness:\n%s", rerr.Report)
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
	if len(ts.Tasks) != 2 || ts.Tasks[0].Ctx.Mode != coro.Scavenger {
		t.Error("count/mode semantics wrong")
	}
	if _, err := h.Tasks(base, "nope", coro.Primary, 1); err == nil {
		t.Error("unknown part accepted")
	}
}

// TestRunMethodsValidate: each closed-loop Run method returns exactly
// the stats of the direct exec sequence it replaces, and refuses a run
// in which one halted task computed other than its host reference,
// naming that task.
func TestRunMethodsValidate(t *testing.T) {
	h, err := NewHarness(DefaultMachine(),
		workloads.PointerChase{Nodes: 2048, Hops: 600, Instances: 4},
		workloads.Compute{Iters: 50, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	tasks := func(part string, mode coro.Mode, n int) []*exec.Task {
		ts, err := h.Tasks(img, part, mode, n)
		if err != nil {
			t.Fatal(err)
		}
		return ts.Tasks
	}
	cases := []struct {
		name, part string
		inst       int // the instance whose reference the case corrupts
		run        func() (any, error)
		direct     func() (any, error)
	}{
		{"solo", "chase", 0,
			func() (any, error) { return h.RunSolo(img, "chase", exec.Config{}) },
			func() (any, error) {
				return h.NewExecutor(img, exec.Config{}).RunSolo(tasks("chase", coro.Primary, 1)[0])
			}},
		{"symmetric", "chase", 3,
			func() (any, error) { return h.RunSymmetric(img, "chase", 4, exec.Config{}) },
			func() (any, error) {
				return h.NewExecutor(img, exec.Config{}).RunSymmetric(tasks("chase", coro.Primary, 4))
			}},
		{"dual, scavenger part", "compute", 1,
			func() (any, error) { return h.RunDualMode(img, "chase", "compute", 2, exec.Config{}) },
			func() (any, error) {
				return h.NewExecutor(img, exec.Config{}).RunDualMode(
					tasks("chase", coro.Primary, 1)[0], tasks("compute", coro.Scavenger, 2))
			}},
		{"dual, one part", "chase", 0,
			func() (any, error) { return h.RunDualMode(img, "chase", "chase", 3, exec.Config{HWAssist: true}) },
			func() (any, error) {
				ts := tasks("chase", coro.Primary, 4)
				return h.NewExecutor(img, exec.Config{HWAssist: true}).RunDualMode(ts[0], ts[1:])
			}},
		{"smt", "chase", 1,
			func() (any, error) { return h.RunSMT(img, "chase", 2, exec.Config{MaxSteps: 1 << 28}) },
			func() (any, error) {
				return h.NewExecutor(img, exec.Config{MaxSteps: 1 << 28}).RunSMT(tasks("chase", coro.Primary, 2), exec.SMTSlice)
			}},
	}
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := c.direct()
		if err != nil {
			t.Fatalf("%s, direct: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats %+v, the direct call gives %+v", c.name, got, want)
		}

		ref := &h.Sc.Part(c.part).Instances[c.inst].Expected
		*ref++
		_, err = c.run()
		*ref--
		name := fmt.Sprintf("%s[%d] computed", c.part, c.inst)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s with a wrong %s[%d]: err = %v, want one naming it", c.name, c.part, c.inst, err)
		}
	}

	// A registry in the config receives the run's core counters.
	reg := &metrics.Registry{}
	st, err := h.RunSymmetric(img, "chase", 4, exec.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if reg.CPU.Retired == 0 || reg.CPU.Retired != st.Retired {
		t.Errorf("registry retired %d, the run %d", reg.CPU.Retired, st.Retired)
	}
}

// TestRegistryTotalsAcrossRuns: a registry observing two closed-loop
// dual-mode runs holds the sums of what each run harvests alone.
func TestRegistryTotalsAcrossRuns(t *testing.T) {
	h, err := NewHarness(DefaultMachine(),
		workloads.PointerChase{Nodes: 2048, Hops: 600, Instances: 1},
		workloads.Compute{Iters: 50, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	runs := []exec.Config{{}, {HWAssist: true}}
	var retired, dram, episodes uint64
	for _, cfg := range runs {
		var alone metrics.Registry
		cfg.Metrics = &alone
		if _, err := h.RunDualMode(img, "chase", "compute", 2, cfg); err != nil {
			t.Fatal(err)
		}
		retired += alone.CPU.Retired
		dram += alone.Mem.Accesses[mem.LevelDRAM]
		episodes += alone.Exec.Episodes
	}
	if episodes == 0 {
		t.Fatal("the runs opened no hide episodes; test is vacuous")
	}
	var shared metrics.Registry
	for _, cfg := range runs {
		cfg.Metrics = &shared
		if _, err := h.RunDualMode(img, "chase", "compute", 2, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if shared.CPU.Retired != retired || shared.Mem.Accesses[mem.LevelDRAM] != dram || shared.Exec.Episodes != episodes {
		t.Errorf("shared registry retired/dram/episodes = %d/%d/%d, the runs sum to %d/%d/%d",
			shared.CPU.Retired, shared.Mem.Accesses[mem.LevelDRAM], shared.Exec.Episodes, retired, dram, episodes)
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
	// The rewriter puts the label at the inserted nop; the image's own
	// symbol table carries the entry the image runs, and the rewrite's
	// table is left as it was.
	if got := img.Prog.Symbols["chase.main"]; got != img.Entries["chase"] {
		t.Errorf("chase.main symbol at %d, entry at %d", got, img.Entries["chase"])
	}
	if got := prog.Symbols["chase.main"]; got != h.Sc.Parts[0].Entry {
		t.Errorf("rewritten program's own chase.main moved to %d", got)
	}

	// Remapping again composes: a second rewrite of the image (as E12
	// hardens an instrumented image) moves the entry once more.
	rw = instrument.NewRewriter(img.Prog)
	rw.InsertBefore(img.Entries["chase"], isa.Instr{Op: isa.OpNop})
	prog2, oldToNew2, err := rw.Apply()
	if err != nil {
		t.Fatal(err)
	}
	img2 := img.Remap(prog2, oldToNew2)
	if want := h.Sc.Parts[0].Entry + 2; img2.Entries["chase"] != want || img2.Prog.Symbols["chase.main"] != want {
		t.Errorf("second remap: entry %d, symbol %d, want %d", img2.Entries["chase"], img2.Prog.Symbols["chase.main"], want)
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
	if cpuCore.Counters.Retired == 0 {
		t.Error("profiling run retired nothing")
	}
}

func TestDefaultMachine(t *testing.T) {
	if err := DefaultMachine().Validate(); err != nil {
		t.Error(err)
	}
	if NS(3000) != 1000 {
		t.Error("NS conversion wrong")
	}
}

// TestHarnessAllocatesTouchedBytesOnly is the byte budget of the paged
// memory image: composing on the default 256 MiB machine costs what the
// workload touches, once (no regrowth copies), not the image's logical
// size; and moving a harness to another machine composes nothing.
func TestHarnessAllocatesTouchedBytesOnly(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	compose := func(spec workloads.Spec) (h *Harness, bytes uint64) {
		var err error
		bytes = allocated(func() { h, err = NewHarness(DefaultMachine(), spec) })
		if err != nil {
			t.Fatal(err)
		}
		if h.Sc.Mem.Size() != DefaultMachine().MemBytes {
			t.Fatalf("image size %d, want the machine's %d", h.Sc.Mem.Size(), DefaultMachine().MemBytes)
		}
		return h, bytes
	}
	if _, n := compose(workloads.Compute{Iters: 1000, Instances: 2}); n >= 1<<20 {
		t.Errorf("composing Compute allocated %d bytes, want < 1 MiB", n)
	}
	// 16384 nodes x 64 B = 1 MiB of chain, allocated once; the rest is
	// the builder's host-side permutation (128 KiB), the program and the
	// stacks.
	h, n := compose(workloads.PointerChase{Nodes: 16384, Hops: 100, Instances: 1})
	if n >= 5<<18 {
		t.Errorf("composing a 1 MiB PointerChase allocated %d bytes, want < 1.25 MiB", n)
	}
	m := h.Mach
	m.Mem.LatDRAM *= 2
	if n := allocated(func() {
		if _, err := h.On(m); err != nil {
			t.Fatal(err)
		}
	}); n >= 1<<10 {
		t.Errorf("moving the harness to another machine allocated %d bytes, want no image bytes", n)
	}
}

// TestHarnessOn pins Harness.On: the new harness runs the same scenario
// on the new machine; a machine that would compose another image (other
// MemBytes or Seed) is refused with one text; an invalid machine is
// refused with NewHarness's text.
func TestHarnessOn(t *testing.T) {
	spec := workloads.PointerChase{Nodes: 512, Hops: 200, Instances: 2}
	h, err := NewHarness(DefaultMachine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := h.Mach
	m.Mem.LatDRAM *= 2
	slow, err := h.On(m)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Sc != h.Sc || slow.Mach != m {
		t.Fatalf("On shares scenario %v, machine %+v; want %p, %+v", slow.Sc == h.Sc, slow.Mach, h.Sc, m)
	}
	fast, err := h.RunSolo(h.Baseline(), "chase", exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := slow.RunSolo(slow.Baseline(), "chase", exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= fast.Cycles {
		t.Errorf("doubling DRAM latency took %d cycles, %d before", st.Cycles, fast.Cycles)
	}

	const recompose = "core: harness composed at MemBytes 268435456, Seed 20230626 cannot run on MemBytes %d, Seed %d"
	bigger, reseeded := h.Mach, h.Mach
	bigger.MemBytes *= 2
	reseeded.Seed++
	for _, m := range []Machine{bigger, reseeded} {
		want := fmt.Sprintf(recompose, m.MemBytes, m.Seed)
		if _, err := h.On(m); err == nil || err.Error() != want {
			t.Errorf("On(MemBytes %d, Seed %d) = %v, want %q", m.MemBytes, m.Seed, err, want)
		}
	}

	badMem, badCPU := h.Mach, h.Mach
	badMem.Mem.LineSize = 48
	badCPU.CPU.CostALU = 0
	for _, m := range []Machine{badMem, badCPU} {
		_, want := NewHarness(m, spec)
		if _, err := h.On(m); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("On(invalid machine) = %v, NewHarness = %v; want the same error", err, want)
		}
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

// TestPaddedChaseSkipsPadLaps pins F1's fast path in integers, on a
// reduced F1 scenario (the 3 µs column's pad, 450 laps a hop): the
// filler loop between hops is top-tested — `cmpi; jle out; addi; jmp` —
// and its laps must retire in closed form, not one at a time. Unobserved,
// the 16-way symmetric run of the instrumented image skips at least 90 %
// of the pad laps, and the SMT-8 run of the baseline retires whole rounds
// of them in closed form.
func TestPaddedChaseSkipsPadLaps(t *testing.T) {
	const pad, hops, n = 450, 20, 16
	h, err := NewHarness(DefaultMachine(), workloads.PaddedChase{Nodes: 1024, Hops: hops, Pad: pad, Instances: n})
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := h.Profile("padchase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, h.Mach.PipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := h.Tasks(img, "padchase", coro.Primary, n)
	if err != nil {
		t.Fatal(err)
	}
	ex := h.NewExecutor(img, exec.Config{})
	if _, err := ex.RunSymmetric(ts.Tasks); err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	padLaps := uint64(n * hops * pad)
	if sb := ex.Core.SuperblockStats(); 10*sb.LapsSkipped < 9*padLaps {
		t.Errorf("symmetric: %d of %d pad laps skipped (%d interpreted over %d trace entries), want ≥ 90%%",
			sb.LapsSkipped, padLaps, sb.LapsInterpreted, sb.Activations)
	}

	const contexts = 8
	ts, err = h.Tasks(h.Baseline(), "padchase", coro.Primary, contexts)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := h.NewExecutor(h.Baseline(), exec.Config{}).NewSMTTicker(ts.Tasks, exec.SMTSlice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Run(exec.NoDeadline); err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if rs := tk.Loop.(*exec.SMT).RoundStats(); rs.Skips == 0 {
		t.Errorf("SMT-%d: no round skipped (%d single slices)", contexts, rs.Slices)
	}
}
