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

// testMinLen is the shortest trace the differential tests install with
// superTier: below NewCore's sbMinLen, since short traces widen their
// coverage of trace entry and exit boundaries.
const testMinLen = 2

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

// driveScalar retires one instruction per RunBlock call under an
// observer, which keeps every call on the scalar dispatch: the
// per-instruction reference the fused segments and traces are held to.
func (r *engineRig) driveScalar(block bool, maxSteps int) {
	r.core.Observe(nopObserver{})
	var res BlockResult
	for i := 0; i < maxSteps && !r.ctx.Halted; i++ {
		if err := r.core.RunBlock(r.ctx, block, 1, 0, Horizon{}, &res); err != nil {
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

// superTier replaces the rig's traces with those derived at testMinLen.
func (r *engineRig) superTier() error {
	return r.core.installSuperblocks(deriveSuperblocks(r.core.instrs, testMinLen))
}

// retireTier is a way RunBlock can retire a program.
type retireTier int

const (
	tierObserved retireTier = iota // an observer attached: scalar dispatch only
	tierBlock                      // traces cleared: fused segments and scalar dispatch
	tierSuper                      // traces derived at testMinLen, over both
)

func (t retireTier) String() string { return [...]string{"observed", "block", "superblock"}[t] }

// setTier puts the rig's core on tier.
func (r *engineRig) setTier(tier retireTier) error {
	switch tier {
	case tierObserved:
		r.core.Observe(nopObserver{})
	case tierBlock:
		r.core.ClearSuperblocks()
	default:
		return r.superTier()
	}
	return nil
}

// driveTier retires through tier, deliberately chopping fuel into
// rng-sized pieces so calls stop at arbitrary points inside and between
// fused segments and trace activations.
func (r *engineRig) driveTier(tier retireTier, block bool, budget uint64, hz Horizon, maxSteps int, rng *rand.Rand) {
	if r.err = r.setTier(tier); r.err != nil {
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

// assertNoTraces fails unless r ran with zero superblock traces: a block
// arm that entered one would hold the trace tier to the reference in the
// block engine's place.
func assertNoTraces(t *testing.T, label string, r *engineRig) {
	t.Helper()
	if n := r.core.SuperblockStats().Activations; n != 0 {
		t.Fatalf("%s: the block arm entered %d superblock traces", label, n)
	}
}

// assertRigsEqual compares every observable the two engines could have
// diverged on: fault surface, full architectural context, the clock,
// every per-PC counter, the hierarchy's fill metrics and all of memory.
func assertRigsEqual(t *testing.T, label string, a, b *engineRig) {
	t.Helper()
	switch {
	case (a.err == nil) != (b.err == nil):
		t.Fatalf("%s: fault divergence: %v vs %v\n%s", label, a.err, b.err, isa.Disassemble(a.core.Prog))
	case a.err != nil && a.err.Error() != b.err.Error():
		t.Fatalf("%s: fault text divergence:\n %v\n %v", label, a.err, b.err)
	}
	if !reflect.DeepEqual(a.ctx, b.ctx) {
		t.Fatalf("%s: context divergence:\n %+v\n %+v\n%s", label, a.ctx, b.ctx, isa.Disassemble(a.core.Prog))
	}
	if a.core.Now != b.core.Now {
		t.Fatalf("%s: clock divergence: %d vs %d", label, a.core.Now, b.core.Now)
	}
	if !reflect.DeepEqual(a.core.Counters, b.core.Counters) {
		t.Fatalf("%s: counter divergence:\n %+v\n %+v\n%s", label, a.core.Counters, b.core.Counters, isa.Disassemble(a.core.Prog))
	}
	var ma, mb metrics.Mem
	a.core.Hier.FillMetrics(&ma)
	b.core.Hier.FillMetrics(&mb)
	if ma != mb {
		t.Fatalf("%s: hierarchy metrics divergence:\n %+v\n %+v", label, ma, mb)
	}
	sa, sb := a.m.Snapshot(), b.m.Snapshot()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: memory divergence at %#x", label, i)
		}
	}
}

// randInitState draws an initial state: twelve random registers over a
// random 512-word arena.
func randInitState(rng *rand.Rand) (initRegs [isa.NumRegs]uint64, arena []uint64) {
	for r := 0; r < 12; r++ {
		initRegs[r] = uint64(rng.Intn(1 << 20))
	}
	arena = make([]uint64, 512)
	for i := range arena {
		arena[i] = uint64(rng.Intn(1 << 24))
	}
	return initRegs, arena
}

// newRigPair builds two rigs for prog from one randInitState.
func newRigPair(prog *isa.Program, rng *rand.Rand) (a, b *engineRig) {
	initRegs, arena := randInitState(rng)
	return newEngineRig(prog, initRegs, arena), newEngineRig(prog, initRegs, arena)
}

// diffOneProgram runs prog through the scalar reference and the block
// engine from identical initial state and asserts byte-identical
// observables.
func diffOneProgram(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64, hz Horizon) {
	t.Helper()
	a, b := newRigPair(prog, rng)
	const maxSteps = 1 << 20
	a.driveScalar(block, maxSteps)
	b.driveTier(tierBlock, block, budget, hz, maxSteps, rng)
	assertNoTraces(t, label, b)
	assertRigsEqual(t, label, a, b)
}

// TestBlockVsStepDifferential is the acceptance pin for the block
// engine: across ≥1000 random programs the fused fast path must be
// byte-identical to the per-instruction scalar dispatch — registers,
// flags, clock, per-PC counters, hierarchy metrics and memory — wherever
// the wake horizon falls among the program's conditional yields.
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
// return at every YIELD/CYIELD exactly where the observed scalar path
// does, with the same live mask, and retire the same accounting around
// it.
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
	a.core.Observe(nopObserver{})
	b := newEngineRig(prog, initRegs, arena)
	b.core.ClearSuperblocks()

	// Drive both engines yield-by-yield: every call must stop in the same
	// place for the same reason.
	var ar, br BlockResult
	for !b.ctx.Halted {
		if err := a.core.RunBlock(a.ctx, false, 1<<20, 0, Horizon{}, &ar); err != nil {
			t.Fatal(err)
		}
		if err := b.core.RunBlock(b.ctx, false, 1<<20, 0, Horizon{}, &br); err != nil {
			t.Fatal(err)
		}
		if ar != br {
			t.Fatalf("yield divergence:\n observed: %+v\n block:    %+v", ar, br)
		}
	}
	assertNoTraces(t, "yields", b)
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

// TestRunBlockHaltedContextFaults pins the halted-context fault,
// including the Faults counter bump.
func TestRunBlockHaltedContextFaults(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{{Op: isa.OpHalt}}}
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
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

// TestFusedSegmentTables checks the plan NewCore precomputes against a
// hand-worked program: fused segment extents and aggregate costs.
func TestFusedSegmentTables(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}, // 0: fusable
		{Op: isa.OpCmpI, Rs1: 1, Imm: 10},       // 1: fusable
		{Op: isa.OpLoad, Rd: 2, Rs1: 13},        // 2: memory — not fusable
		{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 2}, // 3: fusable
		{Op: isa.OpJlt, Imm: 0},                 // 4: stopper
		{Op: isa.OpHalt},                        // 5: stopper
	}}
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
	alu := rig.core.Cfg.CostALU
	wantEnd := []int32{2, 2, 2, 4, 4, 5, 6}
	wantCost := []uint64{2 * alu, alu, 0, alu, 0, 0, 0}
	if got := rig.core.plan.aluEnd; !reflect.DeepEqual(got, wantEnd) {
		t.Errorf("aluEnd = %v, want %v", got, wantEnd)
	}
	if got := rig.core.plan.aluCost; !reflect.DeepEqual(got, wantCost) {
		t.Errorf("aluCost = %v, want %v", got, wantCost)
	}
}

// TestRunBlockObserverFallback pins the profiling contract at the core
// level: with an observer attached, RunBlock reports every instruction as
// it retires — one event stream however the run is cut into calls, and
// one that agrees with the ground-truth counters — and the run ends in
// the state the unobserved fast path reaches.
func TestRunBlockObserverFallback(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        add  r4, r1, r13
        andi r4, r4, 0xFF8
        add  r4, r4, r13
        load r3, [r4]
        accel [r4]
        accwait r5
        cmpi r1, 200
        jlt  loop
        halt
    `)
	run := func(observe bool, fuel uint64) (*engineRig, *recordingObserver) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		rec := &recordingObserver{}
		if observe {
			rig.core.Observe(rec)
		}
		var res BlockResult
		for !rig.ctx.Halted {
			if err := rig.core.RunBlock(rig.ctx, false, fuel, 0, Horizon{}, &res); err != nil {
				t.Fatal(err)
			}
		}
		return rig, rec
	}
	fast, _ := run(false, 1<<20)
	one, oneRec := run(true, 1)
	obs, rec := run(true, 1<<20)
	if !reflect.DeepEqual(oneRec, rec) {
		t.Fatalf("event streams diverge between one-instruction calls and one call: %d vs %d retires", len(oneRec.retires), len(rec.retires))
	}
	assertRigsEqual(t, "observer-fallback", fast, obs)
	assertRigsEqual(t, "observer-one-step", fast, one)
	assertNoTraces(t, "observer-fallback", obs)
	assertEventsMatchCounters(t, obs, rec)
}

// assertEventsMatchCounters holds an observed coroutine-mode run's event
// stream to the core's ground truth: one retire event per retired
// instruction, per-PC loads, stores, DRAM misses, accelerator waits and
// stall cycles as counted, the clock of each event non-decreasing and the
// last one the core's, and each branch event's cycle delta measured from
// the previous one.
func assertEventsMatchCounters(t *testing.T, rig *engineRig, rec *recordingObserver) {
	t.Helper()
	cnt := rig.core.Counters
	n := len(rig.core.instrs)
	got := NewCounters(n)
	var now uint64
	for _, e := range rec.retires {
		if e.Now < now {
			t.Fatalf("retire event at pc %d moves the clock back: %d after %d", e.PC, e.Now, now)
		}
		now = e.Now
		got.Exec[e.PC]++
		got.StallCycles[e.PC] += e.Stall
		if e.IsLoad {
			got.Loads[e.PC]++
		}
		if e.IsStore {
			got.Stores[e.PC]++
		}
		if e.MissedL3 {
			got.MissL3[e.PC]++
		}
		if e.IsAccWait {
			got.AccWaits[e.PC]++
		}
	}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{
		{"Exec", got.Exec, cnt.Exec},
		{"StallCycles", got.StallCycles, cnt.StallCycles},
		{"Loads", got.Loads, cnt.Loads},
		{"Stores", got.Stores, cnt.Stores},
		{"MissL3", got.MissL3, cnt.MissL3},
		{"AccWaits", got.AccWaits, cnt.AccWaits},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("per-PC %s from events %v, counted %v", c.name, c.got, c.want)
		}
	}
	if uint64(len(rec.retires)) != rig.ctx.Retired || now != rig.core.Now {
		t.Fatalf("%d retire events ending at cycle %d; context retired %d, clock %d", len(rec.retires), now, rig.ctx.Retired, rig.core.Now)
	}
	var last uint64
	for _, b := range rec.branches {
		if b.Cycles != b.Now-last {
			t.Fatalf("branch %d->%d at cycle %d reports %d cycles since the one at %d", b.From, b.To, b.Now, b.Cycles, last)
		}
		last = b.Now
	}
	if len(rec.branches) == 0 {
		t.Fatal("no branch events from a looping program")
	}
}
