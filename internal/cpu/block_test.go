package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// fastRuns derives straight-line runs by a linear stopper scan — the
// in-package mirror of bincfg.FastPathRuns, which cannot be imported
// here without an import cycle. The engine's correctness does not depend
// on run granularity (InstallPlan treats runs as advisory), so the two
// derivations are interchangeable for these tests.
func fastRuns(prog *isa.Program) []BlockRun {
	stopper := func(op isa.Op) bool {
		return op.IsBranch() || op == isa.OpRet || op == isa.OpHalt || op.IsYield()
	}
	var runs []BlockRun
	start := 0
	for pc := range prog.Instrs {
		if stopper(prog.Instrs[pc].Op) {
			if pc > start {
				runs = append(runs, BlockRun{Start: start, End: pc})
			}
			start = pc + 1
		}
	}
	if len(prog.Instrs) > start {
		runs = append(runs, BlockRun{Start: start, End: len(prog.Instrs)})
	}
	return runs
}

// engineRig is one independent core+memory+context triple, so the two
// engines under differential test cannot share mutable state.
type engineRig struct {
	core *Core
	ctx  *coro.Context
	m    *mem.Memory
	err  error
}

func newEngineRig(prog *isa.Program, initRegs [isa.NumRegs]uint64, arena []uint64) *engineRig {
	m := mem.NewMemory(1 << 16)
	base := m.Alloc(uint64(len(arena))*8, 64)
	for i, v := range arena {
		m.MustWrite64(base+uint64(i)*8, v)
	}
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	ctx.Regs = initRegs
	ctx.Regs[13] = base
	ctx.Regs[isa.SP] = m.Size() - 8
	return &engineRig{core: core, ctx: ctx, m: m}
}

// driveStep retires through the per-instruction reference engine.
func (r *engineRig) driveStep(block bool, maxSteps int) {
	var res StepResult
	for i := 0; i < maxSteps && !r.ctx.Halted; i++ {
		if err := r.core.StepInto(r.ctx, block, &res); err != nil {
			r.err = err
			return
		}
		if block && res.Stall > 0 {
			// Single-context SMT caller: block on the fill, idle to it.
			r.ctx.StallCycles += res.Stall
			r.core.AdvanceIdle(res.Stall)
		}
	}
}

// driveBlock retires through the block engine with a plan installed,
// deliberately chopping fuel into rng-sized pieces so calls stop at
// arbitrary points inside and between fused segments.
func (r *engineRig) driveBlock(block bool, budget uint64, hz Horizon, maxSteps int, rng *rand.Rand) {
	r.core.InstallPlan(fastRuns(r.core.Prog))
	var res BlockResult
	var used int
	for used < maxSteps && !r.ctx.Halted {
		fuel := uint64(1 + rng.Intn(40))
		if rem := uint64(maxSteps - used); fuel > rem {
			fuel = rem
		}
		if err := r.core.RunBlock(r.ctx, block, fuel, budget, hz, &res); err != nil {
			r.err = err
			return
		}
		used += int(res.Steps)
		if block && res.Stall > 0 {
			r.ctx.StallCycles += res.Stall
			r.core.AdvanceIdle(res.Stall)
		}
	}
}

// assertRigsEqual compares every observable the two engines could have
// diverged on: fault surface, full architectural context, the clock,
// every per-PC counter, the hierarchy's fill metrics and all of memory.
func assertRigsEqual(t *testing.T, label string, a, b *engineRig) {
	t.Helper()
	switch {
	case (a.err == nil) != (b.err == nil):
		t.Fatalf("%s: fault divergence: step=%v block=%v\n%s", label, a.err, b.err, isa.Disassemble(a.core.Prog))
	case a.err != nil && a.err.Error() != b.err.Error():
		t.Fatalf("%s: fault text divergence:\n step:  %v\n block: %v", label, a.err, b.err)
	}
	if !reflect.DeepEqual(a.ctx, b.ctx) {
		t.Fatalf("%s: context divergence:\n step:  %+v\n block: %+v\n%s", label, a.ctx, b.ctx, isa.Disassemble(a.core.Prog))
	}
	if a.core.Now != b.core.Now {
		t.Fatalf("%s: clock divergence: step=%d block=%d", label, a.core.Now, b.core.Now)
	}
	if !reflect.DeepEqual(a.core.Counters, b.core.Counters) {
		t.Fatalf("%s: counter divergence:\n step:  %+v\n block: %+v\n%s", label, a.core.Counters, b.core.Counters, isa.Disassemble(a.core.Prog))
	}
	var ma, mb metrics.Mem
	a.core.Hier.FillMetrics(&ma)
	b.core.Hier.FillMetrics(&mb)
	if ma != mb {
		t.Fatalf("%s: hierarchy metrics divergence:\n step:  %+v\n block: %+v", label, ma, mb)
	}
	sa, sb := a.m.Snapshot(), b.m.Snapshot()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: memory divergence at %#x", label, i)
		}
	}
}

// newRigPair builds two rigs for prog from one rng-drawn initial state:
// twelve random registers over a random 512-word arena.
func newRigPair(prog *isa.Program, rng *rand.Rand) (a, b *engineRig) {
	var initRegs [isa.NumRegs]uint64
	for r := 0; r < 12; r++ {
		initRegs[r] = uint64(rng.Intn(1 << 20))
	}
	arena := make([]uint64, 512)
	for i := range arena {
		arena[i] = uint64(rng.Intn(1 << 24))
	}
	return newEngineRig(prog, initRegs, arena), newEngineRig(prog, initRegs, arena)
}

// diffOneProgram runs prog through both engines from identical initial
// state and asserts byte-identical observables.
func diffOneProgram(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64, hz Horizon) {
	t.Helper()
	a, b := newRigPair(prog, rng)
	const maxSteps = 1 << 20
	a.driveStep(block, maxSteps)
	b.driveBlock(block, budget, hz, maxSteps, rng)
	assertRigsEqual(t, label, a, b)
}

// TestBlockVsStepDifferential is the acceptance pin for the block
// engine: across ≥1000 random programs the fused fast path must be
// byte-identical to per-instruction StepInto — registers, flags, clock,
// per-PC counters, hierarchy metrics and memory — wherever the wake
// horizon falls among the program's conditional yields.
func TestBlockVsStepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 1000; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		diffOneProgram(t, "trial", prog, rng, false, 0, horizonFromByte(uint8(rng.Intn(256))))
	}
}

// TestBlockVsStepDifferentialSMT replays random programs in block mode
// (the SMT executor's contract): exposed stalls must surface on exactly
// the same instruction with exactly the same magnitude, under both a
// tight quantum budget and an effectively unbounded one.
func TestBlockVsStepDifferentialSMT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		budget := uint64(1 + rng.Intn(8)) // incl. quantum 4, the SMT default
		diffOneProgram(t, "smt-trial", prog, rng, true, budget, Horizon{})
	}
}

// TestBlockVsStepCallsAndLoops covers what the random generator omits:
// backward branches (real loops) and CALL/RET, including nested calls,
// with memory traffic inside the loop body so fill timing is exercised
// across iteration boundaries.
func TestBlockVsStepCallsAndLoops(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
        movi r2, 0
    loop:
        add  r4, r2, r13
        load r3, [r4]
        add  r1, r1, r3
        call bump
        addi r2, r2, 64
        andi r2, r2, 0xFFF
        cmpi r0, 400
        jlt  loop
        halt
    bump:
        addi r0, r0, 1
        mul  r5, r0, r0
        ret
    `)
	rng := rand.New(rand.NewSource(7))
	diffOneProgram(t, "calls-loops", prog, rng, false, 0, Horizon{})
}

// TestBlockVsStepYields pins yield reporting: the block engine must
// return at every YIELD/CYIELD with the same live mask StepInto reports,
// and retire the same accounting around it.
func TestBlockVsStepYields(t *testing.T) {
	prog := &isa.Program{}
	for i := 0; i < 6; i++ {
		prog.Instrs = append(prog.Instrs,
			isa.Instr{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 3},
			isa.Instr{Op: isa.OpPrefetch, Rs1: 13, Imm: int64(i * 64)},
			isa.Instr{Op: isa.OpYield, Imm: int64(isa.RegMask(0x7).With(13))},
			isa.Instr{Op: isa.OpLoad, Rd: 2, Rs1: 13, Imm: int64(i * 64)},
			isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)},
		)
	}
	prog.Instrs = append(prog.Instrs, isa.Instr{Op: isa.OpHalt})

	var initRegs [isa.NumRegs]uint64
	arena := make([]uint64, 512)
	a := newEngineRig(prog, initRegs, arena)
	b := newEngineRig(prog, initRegs, arena)
	b.core.InstallPlan(fastRuns(prog))

	// Drive both engines yield-by-yield, checking mask parity at each.
	var sr StepResult
	var br BlockResult
	for !b.ctx.Halted {
		if err := b.core.RunBlock(b.ctx, false, 1<<20, 0, Horizon{}, &br); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < br.Steps; i++ {
			if err := a.core.StepInto(a.ctx, false, &sr); err != nil {
				t.Fatal(err)
			}
		}
		if sr.Yield != br.Yield || sr.CondYield != br.CondYield || sr.LiveMask != br.LiveMask {
			t.Fatalf("yield divergence: step={y:%v cy:%v mask:%v} block={y:%v cy:%v mask:%v}",
				sr.Yield, sr.CondYield, sr.LiveMask, br.Yield, br.CondYield, br.LiveMask)
		}
	}
	assertRigsEqual(t, "yields", a, b)
}

// TestBlockVsStepFaults pins the fault surface: same fault text, same
// context state (PC parked on the faulting instruction), same counters
// — including the Faults counter and the partial hierarchy effects of
// the faulting access.
func TestBlockVsStepFaults(t *testing.T) {
	cases := []struct {
		name  string
		instr []isa.Instr
	}{
		{"load out of bounds", []isa.Instr{
			{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 5},
			{Op: isa.OpMovI, Rd: 2, Imm: 1 << 30},
			{Op: isa.OpLoad, Rd: 3, Rs1: 2},
			{Op: isa.OpHalt},
		}},
		{"store out of bounds", []isa.Instr{
			{Op: isa.OpMovI, Rd: 2, Imm: 1 << 30},
			{Op: isa.OpStore, Rs1: 2, Rs2: 1},
			{Op: isa.OpHalt},
		}},
		{"ret to invalid address", []isa.Instr{
			{Op: isa.OpMovI, Rd: 3, Imm: 999999},
			{Op: isa.OpStore, Rs1: 15, Rs2: 3},
			{Op: isa.OpRet},
			{Op: isa.OpHalt},
		}},
	}
	for _, tc := range cases {
		prog := &isa.Program{Instrs: tc.instr}
		rng := rand.New(rand.NewSource(9))
		diffOneProgram(t, tc.name, prog, rng, false, 0, Horizon{})
	}
}

// TestRunBlockHaltedContextFaults matches StepInto's halted-context
// fault, including the Faults counter bump.
func TestRunBlockHaltedContextFaults(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{{Op: isa.OpHalt}}}
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
	rig.core.InstallPlan(fastRuns(prog))
	var res BlockResult
	if err := rig.core.RunBlock(rig.ctx, false, 10, 0, Horizon{}, &res); err != nil || !res.Halted {
		t.Fatalf("halt run: err=%v halted=%v", err, res.Halted)
	}
	if err := rig.core.RunBlock(rig.ctx, false, 10, 0, Horizon{}, &res); err == nil {
		t.Fatal("stepping a halted context through RunBlock did not fault")
	}
	if rig.core.Counters.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", rig.core.Counters.Faults)
	}
}

// TestInstallPlanTables checks the precomputed plan against a hand-worked
// program: fused segment extents, aggregate costs, and run extents.
func TestInstallPlanTables(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}, // 0: fusable
		{Op: isa.OpCmpI, Rs1: 1, Imm: 10},       // 1: fusable
		{Op: isa.OpLoad, Rd: 2, Rs1: 13},        // 2: memory — not fusable
		{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 2}, // 3: fusable
		{Op: isa.OpJlt, Imm: 0},                 // 4: stopper
		{Op: isa.OpHalt},                        // 5: stopper
	}}
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
	rig.core.InstallPlan(fastRuns(prog))
	p := rig.core.Plan()

	wantALUEnd := []int{2, 2, 2, 4, 4, 5}
	for pc, want := range wantALUEnd {
		if got := p.FusedEnd(pc); got != want {
			t.Errorf("FusedEnd(%d) = %d, want %d", pc, got, want)
		}
	}
	alu := rig.core.Cfg.CostALU
	wantCost := []uint64{2 * alu, alu, 0, alu, 0, 0}
	for pc, want := range wantCost {
		if got := p.FusedCost(pc); got != want {
			t.Errorf("FusedCost(%d) = %d, want %d", pc, got, want)
		}
	}
	wantRunEnd := []int{4, 4, 4, 4, 4, 5}
	for pc, want := range wantRunEnd {
		if got := p.RunEnd(pc); got != want {
			t.Errorf("RunEnd(%d) = %d, want %d", pc, got, want)
		}
	}
}

// TestRunBlockObserverFallback pins the profiling contract at the core
// level: with an observer attached, RunBlock must deliver the identical
// per-instruction event stream StepInto does, even with a plan
// installed.
func TestRunBlockObserverFallback(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        add  r4, r1, r13
        andi r4, r4, 0xFF8
        add  r4, r4, r13
        load r3, [r4]
        cmpi r1, 200
        jlt  loop
        halt
    `)
	run := func(useBlock bool) (*engineRig, []RetireEvent, []BranchEvent) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		rec := &blockEventRecorder{}
		rig.core.Observe(rec)
		if useBlock {
			rig.core.InstallPlan(fastRuns(prog))
			var res BlockResult
			for !rig.ctx.Halted {
				if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{}, &res); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var res StepResult
			for !rig.ctx.Halted {
				if err := rig.core.StepInto(rig.ctx, false, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rig, rec.retires, rec.branches
	}
	a, aRet, aBr := run(false)
	b, bRet, bBr := run(true)
	if !reflect.DeepEqual(aRet, bRet) {
		t.Fatalf("retire event streams diverge: %d vs %d events", len(aRet), len(bRet))
	}
	if !reflect.DeepEqual(aBr, bBr) {
		t.Fatalf("branch event streams diverge: %d vs %d events", len(aBr), len(bBr))
	}
	assertRigsEqual(t, "observer-fallback", a, b)
	if got := uint64(len(bRet)); got != b.ctx.Retired {
		t.Fatalf("observer saw %d retires, context retired %d", got, b.ctx.Retired)
	}
}

type blockEventRecorder struct {
	retires  []RetireEvent
	branches []BranchEvent
}

func (r *blockEventRecorder) OnRetire(ev RetireEvent) { r.retires = append(r.retires, ev) }
func (r *blockEventRecorder) OnBranch(ev BranchEvent) { r.branches = append(r.branches, ev) }
