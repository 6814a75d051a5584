package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
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

// driveScalar retires one instruction per RunBlock call on tierScalar:
// the per-instruction reference the fused segments and traces are held
// to.
func (r *engineRig) driveScalar(block bool, maxSteps int) {
	if r.err = r.setTier(tierScalar); r.err != nil {
		return
	}
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
	return r.core.installSuperblocks(deriveSuperblocks(r.core.Prog.Instrs, testMinLen))
}

// retireTier is a way RunBlock can retire a program.
type retireTier int

const (
	tierScalar   retireTier = iota // no traces, no fused segments: the scalar dispatch alone
	tierBlock                      // traces cleared: fused segments and scalar dispatch
	tierSuper                      // traces derived at testMinLen, over both
	tierObserved                   // tierSuper with an observer attached
)

var allTiers = []retireTier{tierScalar, tierBlock, tierSuper, tierObserved}

func (t retireTier) String() string {
	return [...]string{"scalar", "block", "superblock", "observed"}[t]
}

// scalarOnly clears c's traces and empties every fused segment in the
// decoded table (aluEnd = pc), so each instruction takes the scalar
// dispatch: a reference that needs no observer and no production knob.
func scalarOnly(c *Core) {
	c.ClearSuperblocks()
	for pc := range c.uops {
		c.uops[pc].aluEnd = int32(pc)
	}
}

// setTier puts the rig's core on tier.
func (r *engineRig) setTier(tier retireTier) error {
	switch tier {
	case tierScalar:
		scalarOnly(r.core)
	case tierBlock:
		r.core.ClearSuperblocks()
	case tierSuper:
		return r.superTier()
	case tierObserved:
		r.core.Observe(nopObserver{})
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
	if a.core.Hier.Stats != b.core.Hier.Stats {
		t.Fatalf("%s: hierarchy counter divergence:\n %+v\n %+v", label, a.core.Hier.Stats, b.core.Hier.Stats)
	}
	sa, sb := memImage(a.m), memImage(b.m)
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
// return at every YIELD/CYIELD exactly where the scalar dispatch does,
// with the same live mask, and retire the same accounting around it.
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
	if err := a.setTier(tierScalar); err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("yield divergence:\n scalar: %+v\n block:  %+v", ar, br)
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

// TestFusedSegmentTables checks the fused-segment bounds NewCore decodes
// against a hand-worked program: segment extents and aggregate costs, one
// entry per instruction.
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
	wantEnd := []int32{2, 2, 2, 4, 4, 5}
	wantCost := []uint64{2 * alu, alu, 0, alu, 0, 0}
	var gotEnd []int32
	for _, u := range rig.core.uops {
		gotEnd = append(gotEnd, u.aluEnd)
	}
	if !reflect.DeepEqual(gotEnd, wantEnd) {
		t.Errorf("aluEnd = %v, want %v", gotEnd, wantEnd)
	}
	if got := rig.core.aluCost; !reflect.DeepEqual(got, wantCost) {
		t.Errorf("aluCost = %v, want %v", got, wantCost)
	}
}

// TestRunBlockObserverFallback pins the profiling contract at the core
// level: with an observer attached, RunBlock still enters the traces,
// reports every retirement that carries an event — one event stream
// however the run is cut into calls, the one the scalar dispatch alone
// produces, and one that agrees with the ground-truth counters — and the
// run ends in the state the unobserved fast path reaches.
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
        call bump
        cmpi r1, 200
        jlt  loop
        halt
    bump:
        addi r6, r6, 1
        ret
    `)
	const callPC = 8 // its first push misses to DRAM: a retire event for the stall alone
	run := func(scalar, observe bool, fuel uint64) (*engineRig, *recordingObserver) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		if scalar {
			if err := rig.setTier(tierScalar); err != nil {
				t.Fatal(err)
			}
		}
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
	fast, _ := run(false, false, 1<<20)
	scalar, scalarRec := run(true, true, 1<<20)
	one, oneRec := run(false, true, 1)
	obs, rec := run(false, true, 1<<20)
	if !reflect.DeepEqual(oneRec, rec) {
		t.Fatalf("event streams diverge between one-instruction calls and one call: %d vs %d retires", len(oneRec.retires), len(rec.retires))
	}
	if !reflect.DeepEqual(scalarRec, rec) {
		t.Fatalf("event streams diverge between the scalar dispatch and the tiers: %d vs %d retires", len(scalarRec.retires), len(rec.retires))
	}
	assertRigsEqual(t, "observer-fallback", fast, obs)
	assertRigsEqual(t, "observer-one-step", fast, one)
	assertRigsEqual(t, "observer-scalar", fast, scalar)
	if n := obs.core.SuperblockStats().Activations; n == 0 {
		t.Fatal("the observed run entered no trace")
	}
	if obs.core.Counters.StallCycles[callPC] == 0 {
		t.Fatal("the call's stack push never stalled")
	}
	assertEventsMatchCounters(t, "observer-fallback", obs, rec)
	if len(rec.branches) == 0 {
		t.Fatal("no branch events from a looping program")
	}
}

// TestObserverKeepsFusedSegments pins that an observer leaves the fused
// ALU segments on: with the segment at pc 0 doctored to cost 1000 cycles
// more than its instructions do, an observed run must end 1000 cycles
// later than an undoctored one — an extra only the fused loop charges.
func TestObserverKeepsFusedSegments(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.OpMulI, Rd: 2, Rs1: 1, Imm: 3},
		{Op: isa.OpXor, Rd: 3, Rs1: 2, Rs2: 1},
		{Op: isa.OpHalt},
	}}
	clock := func(extra uint64) uint64 {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
		rig.core.ClearSuperblocks()
		rig.core.Observe(nopObserver{})
		rig.core.aluCost[0] += extra
		runToHalt(t, rig.core, rig.ctx, 10)
		return rig.core.Now
	}
	if doctored, plain := clock(1000), clock(0); doctored != plain+1000 {
		t.Fatalf("observed run ended at cycle %d with the segment doctored, %d without: the fused segment did not run", doctored, plain)
	}
}

// diffEvents runs prog from one initial state on tierScalar, tierBlock
// and tierSuper, each with a recording observer and fuel cut at random,
// and holds the three event streams to one another, every field of every
// event, and each run's end state to the scalar one. In coroutine mode
// the scalar stream is also held to the ground-truth counters.
func diffEvents(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64, hz Horizon) {
	t.Helper()
	initRegs, arena := randInitState(rng)
	var ref *engineRig
	var refRec *recordingObserver
	for _, tier := range []retireTier{tierScalar, tierBlock, tierSuper} {
		r := newEngineRig(prog, initRegs, arena)
		rec := &recordingObserver{}
		r.core.Observe(rec)
		r.driveTier(tier, block, budget, hz, 1<<20, rng)
		if tier == tierScalar {
			ref, refRec = r, rec
			if !block {
				assertEventsMatchCounters(t, label, r, rec)
			}
			continue
		}
		at := fmt.Sprintf("%s (%v tier, block=%v budget=%d hz=%+v)", label, tier, block, budget, hz)
		assertRigsEqual(t, at, ref, r)
		if i, ok := firstDiff(refRec.retires, rec.retires); !ok {
			t.Fatalf("%s: retire event %d of %d/%d diverges:\n scalar: %s\n tier:   %s\n%s", at, i, len(refRec.retires), len(rec.retires),
				eventAt(refRec.retires, i), eventAt(rec.retires, i), isa.Disassemble(prog))
		}
		if i, ok := firstDiff(refRec.branches, rec.branches); !ok {
			t.Fatalf("%s: branch event %d of %d/%d diverges:\n scalar: %s\n tier:   %s\n%s", at, i, len(refRec.branches), len(rec.branches),
				eventAt(refRec.branches, i), eventAt(rec.branches, i), isa.Disassemble(prog))
		}
	}
}

// firstDiff returns the index of the first event in which a and b
// differ, and whether they are equal.
func firstDiff[E comparable](a, b []E) (int, bool) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

// eventAt renders s[i], or "none" past its end.
func eventAt[E any](s []E, i int) string {
	if i >= len(s) {
		return "none"
	}
	return fmt.Sprintf("%+v", s[i])
}

// assertEventsMatchCounters holds an observed coroutine-mode run's event
// stream to the core's ground truth: retire events only for retirements
// that carry one (a load, a store, an accelerator wait, an exposed
// stall), never more at a pc than retired there, and adding up to the
// per-PC loads, stores, DRAM misses, accelerator waits and stall cycles
// as counted — so one per load, store, wait and stalled instruction; both
// streams' clocks non-decreasing and never past the core's; and each
// branch event's cycle delta measured from the previous one. How often
// the other instructions retired is the counters' alone.
func assertEventsMatchCounters(t *testing.T, label string, rig *engineRig, rec *recordingObserver) {
	t.Helper()
	cnt := rig.core.Counters
	instrs := rig.core.Prog.Instrs
	got := NewCounters(len(instrs))
	var now uint64
	for _, e := range rec.retires {
		if e.Now < now || e.Now > rig.core.Now {
			t.Fatalf("%s: retire event at pc %d at cycle %d, after one at %d with the core at %d", label, e.PC, e.Now, now, rig.core.Now)
		}
		now = e.Now
		if op := instrs[e.PC].Op; e.Op != byte(op) || !carriesEvent(op, e.Stall) {
			t.Fatalf("%s: retire event %+v for the %v at pc %d, which carries none", label, e, op, e.PC)
		}
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
	for pc, n := range got.Exec {
		if n > cnt.Exec[pc] {
			t.Fatalf("%s: %d retire events at pc %d, which retired %d times", label, n, pc, cnt.Exec[pc])
		}
	}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{
		{"StallCycles", got.StallCycles, cnt.StallCycles},
		{"Loads", got.Loads, cnt.Loads},
		{"Stores", got.Stores, cnt.Stores},
		{"MissL3", got.MissL3, cnt.MissL3},
		{"AccWaits", got.AccWaits, cnt.AccWaits},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: per-PC %s from events %v, counted %v", label, c.name, c.got, c.want)
		}
	}
	var last uint64
	for _, b := range rec.branches {
		if b.Now < last || b.Now > rig.core.Now || b.Cycles != b.Now-last {
			t.Fatalf("%s: branch %d->%d at cycle %d reports %d cycles since the one at %d (core at %d)", label, b.From, b.To, b.Now, b.Cycles, last, rig.core.Now)
		}
		last = b.Now
	}
}
