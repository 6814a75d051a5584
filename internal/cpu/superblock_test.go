package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// sbDeriveSpecs derives static-BTFN superblock traces by a linear scan —
// the in-package mirror of bincfg.SuperblockSpecs, which cannot be
// imported here without an import cycle. Correctness does not depend on
// which traces are chosen (InstallSuperblocks validates and the engine
// side-exits on any misprediction), so the two derivations are
// interchangeable for these tests.
func sbDeriveSpecs(prog *isa.Program) []SuperblockSpec {
	n := len(prog.Instrs)
	isHead := make([]bool, n)
	var heads []int
	addHead := func(pc int) {
		if pc >= 0 && pc < n && !isHead[pc] && SuperblockTraceable(prog.Instrs[pc].Op) {
			isHead[pc] = true
			heads = append(heads, pc)
		}
	}
	addHead(0)
	for pc := range prog.Instrs {
		in := &prog.Instrs[pc]
		if (in.Op == isa.OpJmp || in.Op.IsConditional()) && in.Target() <= pc {
			addHead(in.Target())
		}
	}
	inTrace := make([]bool, n)
	var specs []SuperblockSpec
	for _, head := range heads {
		var pcs []int
		loop := false
		pc := head
		for len(pcs) < 512 {
			if pc < 0 || pc >= n || inTrace[pc] || !SuperblockTraceable(prog.Instrs[pc].Op) {
				break
			}
			inTrace[pc] = true
			pcs = append(pcs, pc)
			in := &prog.Instrs[pc]
			next := pc + 1
			if in.Op == isa.OpJmp || (in.Op.IsConditional() && in.Target() <= pc) {
				next = in.Target()
			}
			if (in.Op == isa.OpJmp || in.Op.IsConditional()) && next == head {
				loop = true
				break
			}
			pc = next
		}
		for _, p := range pcs {
			inTrace[p] = false
		}
		if len(pcs) >= 2 {
			// Deliberately lower than bincfg's minimum: short traces widen
			// differential coverage of entry/exit boundaries.
			specs = append(specs, SuperblockSpec{PCs: pcs, Loop: loop})
		}
	}
	return specs
}

// driveSuper retires through the superblock tier (block plan plus
// derived traces), chopping fuel into rng-sized pieces so calls stop at
// arbitrary points inside and between trace activations.
func (r *engineRig) driveSuper(block bool, budget uint64, hz Horizon, maxSteps int, rng *rand.Rand) {
	r.core.InstallPlan(fastRuns(r.core.Prog))
	if err := r.core.InstallSuperblocks(sbDeriveSpecs(r.core.Prog)); err != nil {
		r.err = err
		return
	}
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

// diffSuperProgram runs prog through the per-instruction reference and
// the superblock tier from identical initial state and asserts
// byte-identical observables — the same contract block_test.go pins for
// the block engine, extended one tier up.
func diffSuperProgram(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64, hz Horizon) {
	t.Helper()
	a, b := newRigPair(prog, rng)
	const maxSteps = 1 << 20
	a.driveStep(block, maxSteps)
	b.driveSuper(block, budget, hz, maxSteps, rng)
	assertRigsEqual(t, label, a, b)
}

// randLoopProgram wraps a random straight-line body in a counted loop:
// the body (forward branches only, memory confined to the r13 arena)
// falls through into a loop latch on r12, which the generator's body
// never touches. The backward latch makes the whole program a loop-
// superblock candidate, and re-running the body exercises residency
// memos across iterations. latchYield puts a CYIELD ahead of the latch —
// the shape of an instrumented scavenger loop, and the one in which a
// loop superblock laps through a yield.
func randLoopProgram(rng *rand.Rand, n int, iters int64, arenaSize int64, latchYield bool) *isa.Program {
	p := randRunnableProgram(rng, n, arenaSize)
	p.Instrs = p.Instrs[:len(p.Instrs)-1] // drop HALT; targets of n now hit the latch
	return closeLoop(p, iters, latchYield)
}

// randCountingLoop is randLoopProgram over a body of nothing but
// self-increments, nops and CYIELDs, which with the latch makes a
// counting loop: the shape whose laps the superblock tier retires in
// closed form (sbLap). iters may be large — only a tier that walks every
// lap pays for it.
func randCountingLoop(rng *rand.Rand, n int, iters int64, latchYield bool) *isa.Program {
	p := &isa.Program{}
	for i := 0; i < n; i++ {
		switch r := isa.Reg(rng.Intn(16)); {
		case r < 12:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpAddI, Rd: r, Rs1: r, Imm: int64(rng.Intn(129) - 64)})
		case r < 14:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpNop})
		default:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)})
		}
	}
	return closeLoop(p, iters, latchYield)
}

// closeLoop appends the latch — iters laps, counted on r12 — and a HALT.
func closeLoop(p *isa.Program, iters int64, latchYield bool) *isa.Program {
	if latchYield {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)})
	}
	p.Instrs = append(p.Instrs,
		isa.Instr{Op: isa.OpAddI, Rd: 12, Rs1: 12, Imm: 1},
		isa.Instr{Op: isa.OpCmpI, Rs1: 12, Imm: iters},
		isa.Instr{Op: isa.OpJlt, Imm: 0},
		isa.Instr{Op: isa.OpHalt},
	)
	return p
}

// TestSuperblockVsStepDifferential is the acceptance pin for the
// superblock tier: across ≥1000 random programs — straight-line and
// looping, under wake horizons on both sides of their yields — the
// specialized trace loops must be byte-identical to per-instruction
// StepInto.
func TestSuperblockVsStepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 700; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		diffSuperProgram(t, "sb-trial", prog, rng, false, 0, horizonFromByte(uint8(rng.Intn(256))))
	}
	for trial := 0; trial < 300; trial++ {
		prog := randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096, trial%2 == 0)
		diffSuperProgram(t, "sb-loop-trial", prog, rng, false, 0, horizonFromByte(uint8(rng.Intn(256))))
	}
}

// TestSuperblockVsStepSMT replays random loop programs in block mode
// under tight quantum budgets: a superblock activation must clip at
// exactly the busy cycle the reference does, expose the same stalls on
// the same instructions, and resume mid-trace without drift.
func TestSuperblockVsStepSMT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		budget := uint64(1 + rng.Intn(8)) // incl. quantum 4, the SMT default
		diffSuperProgram(t, "sb-smt", prog, rng, true, budget, Horizon{})
	}
	for trial := 0; trial < 150; trial++ {
		prog := randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096, trial%2 == 0)
		budget := uint64(1 + rng.Intn(8))
		diffSuperProgram(t, "sb-smt-loop", prog, rng, true, budget, Horizon{})
	}
}

// TestSuperblockCallsAndLoops covers mixed trace/non-trace flow: a hot
// loop with memory traffic (loop-superblock candidate) interrupted every
// iteration by a CALL, which is not traceable — so execution alternates
// between trace activations and generic dispatch.
func TestSuperblockCallsAndLoops(t *testing.T) {
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
	diffSuperProgram(t, "sb-calls-loops", prog, rng, false, 0, Horizon{})
}

// TestSuperblockFaults pins the fault surface through the trace loop: a
// faulting memory step must park the PC on the faulting instruction with
// the exact counter state — including the batched per-PC Exec flush of
// every instruction retired before the fault — StepInto produces.
func TestSuperblockFaults(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 0
    loop:
        addi r1, r1, 1
        add  r4, r2, r13
        load r3, [r4]
        addi r2, r2, 1048576
        cmpi r1, 10
        jlt  loop
        halt
    `)
	rng := rand.New(rand.NewSource(11))
	diffSuperProgram(t, "sb-fault", prog, rng, false, 0, Horizon{})
	// Same program, store side.
	sprog := isa.MustAssemble(`
        movi r2, 0
    loop:
        addi r1, r1, 1
        add  r4, r2, r13
        store [r4], r1
        addi r2, r2, 1048576
        cmpi r1, 10
        jlt  loop
        halt
    `)
	diffSuperProgram(t, "sb-fault-store", sprog, rng, false, 0, Horizon{})
}

// TestSuperblockFlushInvalidation drives the reference and the trace
// tier in lockstep with a hierarchy Flush injected at every pause: the
// flush advances the residency generation, so armed memos must re-prove
// (and fail, falling back to the full walk) instead of replaying stale
// hits.
func TestSuperblockFlushInvalidation(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        load r4, [r13+8]
        add  r5, r3, r4
        cmpi r1, 300
        jlt  loop
        halt
    `)
	var initRegs [isa.NumRegs]uint64
	arena := make([]uint64, 512)
	for i := range arena {
		arena[i] = uint64(i * 3)
	}
	a := newEngineRig(prog, initRegs, arena)
	b := newEngineRig(prog, initRegs, arena)
	b.core.InstallPlan(fastRuns(prog))
	if err := b.core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
		t.Fatal(err)
	}
	var sr StepResult
	var br BlockResult
	for !b.ctx.Halted {
		if err := b.core.RunBlock(b.ctx, false, 17, 0, Horizon{}, &br); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < br.Steps; i++ {
			if err := a.core.StepInto(a.ctx, false, &sr); err != nil {
				t.Fatal(err)
			}
		}
		a.core.Hier.Flush()
		b.core.Hier.Flush()
	}
	assertRigsEqual(t, "sb-flush", a, b)
}

// TestSuperblockMemoArms is the white-box check that the residency memo
// actually engages: after a hot loop whose loads hit one resident line,
// some compiled mem step must hold an armed memo (otherwise the
// AccessResident path was never reachable and the differential suite was
// vacuously passing on the slow path).
func TestSuperblockMemoArms(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        add  r5, r5, r3
        cmpi r1, 200
        jlt  loop
        halt
    `)
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	rig.core.InstallPlan(fastRuns(prog))
	if err := rig.core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
		t.Fatal(err)
	}
	var res BlockResult
	for !rig.ctx.Halted {
		if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{}, &res); err != nil {
			t.Fatal(err)
		}
	}
	armed := false
	for i := range rig.core.sbs {
		for _, st := range rig.core.sbs[i].steps {
			if st.kind == sbMem && st.memoGen != 0 {
				armed = true
			}
		}
	}
	if !armed {
		t.Fatal("no mem step armed its residency memo after a hot resident loop")
	}
	if got := rig.core.Hier.Gen(); got == 0 {
		t.Fatalf("hierarchy generation = 0, want nonzero (reserved as 'never proven')")
	}
}

// TestSuperblockObserverFallback pins the profiling contract one tier
// up: with an observer attached, a core with superblocks installed must
// deliver the identical per-instruction event stream StepInto does —
// the trace tier, like the block engine, is bypassed entirely.
func TestSuperblockObserverFallback(t *testing.T) {
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
	run := func(useSuper bool) (*engineRig, []RetireEvent, []BranchEvent) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		rec := &blockEventRecorder{}
		rig.core.Observe(rec)
		if useSuper {
			rig.core.InstallPlan(fastRuns(prog))
			if err := rig.core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
				t.Fatal(err)
			}
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
	assertRigsEqual(t, "sb-observer-fallback", a, b)
}

// TestInstallSuperblocksValidation exercises the defensive checks: a
// buggy deriver must be rejected at install, never mis-executed.
func TestInstallSuperblocksValidation(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        cmpi r1, 10
        jlt  loop
        call sub
        halt
    sub:
        ret
    `)
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	cases := []struct {
		name string
		spec SuperblockSpec
	}{
		{"empty", SuperblockSpec{}},
		{"pc out of range", SuperblockSpec{PCs: []int{0, 99}}},
		{"negative pc", SuperblockSpec{PCs: []int{-1}}},
		{"not traceable (call)", SuperblockSpec{PCs: []int{5}}},
		{"disconnected", SuperblockSpec{PCs: []int{0, 2}}},
		{"branch to unrelated pc", SuperblockSpec{PCs: []int{3, 4, 0}}},
		{"loop closing on non-branch", SuperblockSpec{PCs: []int{1, 2}, Loop: true}},
	}
	for _, tc := range cases {
		if err := rig.core.InstallSuperblocks([]SuperblockSpec{tc.spec}); err == nil {
			t.Errorf("%s: install accepted invalid spec %+v", tc.name, tc.spec)
		}
	}
	// And the valid loop trace installs.
	valid := SuperblockSpec{PCs: []int{1, 2, 3, 4}, Loop: true}
	if err := rig.core.InstallSuperblocks([]SuperblockSpec{valid}); err != nil {
		t.Fatalf("valid loop spec rejected: %v", err)
	}
	if !rig.core.HasSuperblocks() {
		t.Fatal("HasSuperblocks false after install")
	}
	rig.core.ClearSuperblocks()
	if rig.core.HasSuperblocks() {
		t.Fatal("HasSuperblocks true after clear")
	}
}
