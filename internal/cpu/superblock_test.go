package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// diffSuperProgram runs prog through the scalar reference and the
// superblock tier from identical initial state and asserts
// byte-identical observables — the same contract block_test.go pins for
// the block engine, extended one tier up.
func diffSuperProgram(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64, hz Horizon) {
	t.Helper()
	a, b := newRigPair(prog, rng)
	const maxSteps = 1 << 20
	a.driveScalar(block, maxSteps)
	b.driveTier(tierSuper, block, budget, hz, maxSteps, rng)
	assertRigsEqual(t, label, a, b)
}

// randLoopProgram wraps a random straight-line body in a counted loop:
// the body (forward branches only, memory confined to the r13 arena)
// falls through into a loop latch on r12, which the generator's body
// never touches. The backward latch makes the whole program a loop-
// superblock candidate, and re-running the body exercises resident
// memory steps across iterations. latchYield puts a CYIELD ahead of the
// latch — the shape of an instrumented scavenger loop, and the one in
// which a loop superblock laps through a yield.
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
// specialized trace loops must be byte-identical to the per-instruction
// scalar dispatch.
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
// every instruction retired before the fault — the scalar dispatch
// produces.
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
// first access to each line after a flush must miss in both, never
// replay a hit on a line the flush dropped.
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
	a.core.Observe(nopObserver{})
	b := newEngineRig(prog, initRegs, arena)
	if err := b.superTier(); err != nil {
		t.Fatal(err)
	}
	var ar, br BlockResult
	for !b.ctx.Halted {
		if err := a.core.RunBlock(a.ctx, false, 17, 0, Horizon{}, &ar); err != nil {
			t.Fatal(err)
		}
		if err := b.core.RunBlock(b.ctx, false, 17, 0, Horizon{}, &br); err != nil {
			t.Fatal(err)
		}
		if ar != br {
			t.Fatalf("calls diverge:\n observed: %+v\n trace:    %+v", ar, br)
		}
		a.core.Hier.Flush()
		b.core.Hier.Flush()
	}
	assertRigsEqual(t, "sb-flush", a, b)
}

// TestSuperblocksReadOnly pins that running a trace leaves the compiled
// traces exactly as NewCore built them: a hot loop whose loads and stores
// hit one resident line runs through its loop trace, and afterwards
// c.sbs must deep-equal a copy taken before the first instruction.
func TestSuperblocksReadOnly(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        add  r5, r5, r3
        store [r13+8], r5
        cmpi r1, 200
        jlt  loop
        halt
    `)
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	built := make([]superblock, len(rig.core.sbs))
	for i, sb := range rig.core.sbs {
		sb.steps = append([]sbStep(nil), sb.steps...)
		sb.uops = append([]sbUop(nil), sb.uops...)
		built[i] = sb
	}
	var res BlockResult
	for !rig.ctx.Halted {
		if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{}, &res); err != nil {
			t.Fatal(err)
		}
	}
	if st := rig.core.SuperblockStats(); st.LapsInterpreted < 100 {
		t.Fatalf("loop trace interpreted %d laps, want the hot loop's 200 (stats %+v)", st.LapsInterpreted, st)
	}
	if !reflect.DeepEqual(rig.core.sbs, built) {
		t.Fatal("running the loop trace changed the compiled traces")
	}
}

// TestSuperblockObserverFallback pins the profiling contract one tier
// up: with an observer attached, a core with superblocks installed must
// enter none of them and deliver the event stream a core without any
// does, ending in the state the unobserved trace tier reaches.
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
	run := func(super, observe bool) (*engineRig, *recordingObserver) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		if !super {
			rig.core.ClearSuperblocks()
		} else if err := rig.superTier(); err != nil {
			t.Fatal(err)
		}
		rec := &recordingObserver{}
		if observe {
			rig.core.Observe(rec)
		}
		var res BlockResult
		for !rig.ctx.Halted {
			if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{}, &res); err != nil {
				t.Fatal(err)
			}
		}
		return rig, rec
	}
	fast, _ := run(true, false)
	if fast.core.SuperblockStats().Activations == 0 {
		t.Fatal("the unobserved run entered no trace")
	}
	plain, plainRec := run(false, true)
	obs, rec := run(true, true)
	if !reflect.DeepEqual(plainRec, rec) {
		t.Fatalf("event streams diverge with and without traces: %d vs %d retires", len(plainRec.retires), len(rec.retires))
	}
	assertNoTraces(t, "sb-observer-fallback", obs)
	assertRigsEqual(t, "sb-observer-fallback", fast, obs)
	assertRigsEqual(t, "sb-observer-no-traces", fast, plain)
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
		spec sbSpec
	}{
		{"empty", sbSpec{}},
		{"pc out of range", sbSpec{pcs: []int{0, 99}}},
		{"negative pc", sbSpec{pcs: []int{-1}}},
		{"not traceable (call)", sbSpec{pcs: []int{5}}},
		{"disconnected", sbSpec{pcs: []int{0, 2}}},
		{"branch to unrelated pc", sbSpec{pcs: []int{3, 4, 0}}},
		{"loop closing on non-branch", sbSpec{pcs: []int{1, 2}, loop: true}},
	}
	for _, tc := range cases {
		if err := rig.core.installSuperblocks([]sbSpec{tc.spec}); err == nil {
			t.Errorf("%s: install accepted invalid spec %+v", tc.name, tc.spec)
		}
	}
	// And the valid loop trace installs.
	valid := sbSpec{pcs: []int{1, 2, 3, 4}, loop: true}
	if err := rig.core.installSuperblocks([]sbSpec{valid}); err != nil {
		t.Fatalf("valid loop spec rejected: %v", err)
	}
	if len(rig.core.sbs) != 1 {
		t.Fatalf("%d traces installed, want 1", len(rig.core.sbs))
	}
	rig.core.ClearSuperblocks()
	if rig.core.sbs != nil || rig.core.sbEntry != nil {
		t.Fatal("traces left after ClearSuperblocks")
	}
}

// An instrumented scavenger loop — a conditional yield in the body —
// must derive as one loop trace straight through the CYIELD, or the
// retire tier that keeps dormant yields in-trace never gets the loop. A
// primary-phase YIELD still ends the trace it sits in.
func TestDeriveSuperblocksChainConditionalYields(t *testing.T) {
	scav := isa.MustAssemble(`
    scav:
        addi r5, r5, 1
        cyield 0x8030
        addi r4, r4, -1
        cmpi r4, 0
        jgt scav
        mov r1, r5
        halt
    `)
	want := []sbSpec{{pcs: []int{0, 1, 2, 3, 4}, loop: true}}
	if got := deriveSuperblocks(scav.Instrs, sbMinLen); !reflect.DeepEqual(got, want) {
		t.Errorf("scavenger loop derived %+v, want %+v", got, want)
	}

	chase := isa.MustAssemble(`
    chase:
        prefetch [r1]
        yield 0x800a
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt chase
        halt
    `)
	for _, spec := range deriveSuperblocks(chase.Instrs, testMinLen) {
		for _, pc := range spec.pcs {
			if op := chase.Instrs[pc].Op; op == isa.OpYield || op == isa.OpPrefetch {
				t.Errorf("trace %+v runs through the %v at pc %d", spec, op, pc)
			}
		}
	}
}

// TestNewCoreIsBornReady pins what NewCore hands every caller: the block
// plan and exactly the traces deriveSuperblocks finds at
// sbMinLen, one per head, entered from their head pc and nowhere else —
// over random programs full of yields of both kinds and closed into a
// loop so heads beyond pc 0 exist. Both sides chain on
// superblockTraceable, so the install never rejects what was derived.
func TestNewCoreIsBornReady(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		prog := randRunnableProgram(rng, 5+rng.Intn(60), 4096)
		prog.Instrs[len(prog.Instrs)-1] = isa.Instr{Op: isa.OpJlt, Imm: int64(rng.Intn(len(prog.Instrs)))}
		prog.Instrs = append(prog.Instrs, isa.Instr{Op: isa.OpHalt})
		c, err := NewCore(DefaultConfig(), prog, mem.NewMemory(1<<12), mem.MustNewHierarchy(mem.DefaultConfig()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, isa.Disassemble(prog))
		}
		if p := c.plan; len(p.aluEnd) != len(prog.Instrs)+1 || len(p.aluCost) != len(prog.Instrs)+1 {
			t.Fatalf("trial %d: fused-segment tables of %d and %d entries for %d instructions", trial, len(p.aluEnd), len(p.aluCost), len(prog.Instrs))
		}
		specs := deriveSuperblocks(prog.Instrs, sbMinLen)
		if len(c.sbs) != len(specs) {
			t.Fatalf("trial %d: %d traces installed, %d derived", trial, len(c.sbs), len(specs))
		}
		entries := 0
		for pc, sbi := range c.sbEntry {
			if sbi >= 0 {
				entries++
				if int(c.sbs[sbi].entry) != pc {
					t.Fatalf("trial %d: pc %d enters the trace headed at %d", trial, pc, c.sbs[sbi].entry)
				}
			}
		}
		for i, spec := range specs {
			if c.sbs[i].entry != int32(spec.pcs[0]) {
				t.Fatalf("trial %d: trace %d headed at %d, derived at %d", trial, i, c.sbs[i].entry, spec.pcs[0])
			}
		}
		if entries != len(specs) {
			t.Fatalf("trial %d: %d entry pcs for %d traces", trial, entries, len(specs))
		}
	}
}
