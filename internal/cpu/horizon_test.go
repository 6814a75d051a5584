package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// horizonFromByte spreads one fuzz byte over the horizons worth telling
// apart: 0 is the zero horizon (every CYIELD returns, what the SMT loop
// runs under), 255 one that never wakes, and
// anything in between wakes 16 cycles per unit into the run — the
// generators' programs retire in a few thousand cycles, so yields fall
// on both sides of it — with the re-base bound at or a little past it.
func horizonFromByte(b uint8) Horizon {
	switch b {
	case 0:
		return Horizon{}
	case 255:
		return Horizon{Wake: ^uint64(0), Bound: ^uint64(0)}
	}
	wake := uint64(b) * 16
	return Horizon{Wake: wake, Bound: wake + uint64(b%8)*8}
}

// runReentering is the reference a wake horizon is held to: RunBlock at
// the zero horizon, re-entered by hand after every CYIELD that retired
// below hz.Wake with the busy budget re-based to hz.Bound − Now — the
// scheduling-loop trip a dormant yield stands for. res is what one call
// under hz must report.
func (r *engineRig) runReentering(block bool, fuel, budget uint64, hz Horizon, res *BlockResult) error {
	*res = BlockResult{}
	for {
		var one BlockResult
		err := r.core.RunBlock(r.ctx, block, fuel-res.Steps, budget, Horizon{}, &one)
		res.Steps += one.Steps
		res.Busy += one.Busy
		if err != nil {
			return err
		}
		if !one.CondYield || r.core.Now >= hz.Wake {
			res.Stall, res.Halted = one.Stall, one.Halted
			res.Yield, res.CondYield, res.LiveMask = one.Yield, one.CondYield, one.LiveMask
			return nil
		}
		res.Dormant++
		res.DormantAt = r.core.Now
		res.Busy = 0
		budget = hz.Bound - r.core.Now
	}
}

// diffHorizon runs prog on two rigs in lockstep, call by call over the
// same rng-chopped fuel: one under hz, one through runReentering. Every
// call must report the same BlockResult — where it stopped and why, the
// busy cycles since the last re-base, the dormant count and clock a
// scheduling loop rebuilds its poll quota from — and the runs must end
// in byte-identical state. Both rigs retire on tier.
func diffHorizon(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, tier retireTier, block bool, budget uint64, hz Horizon) {
	t.Helper()
	ref, got := newRigPair(prog, rng)
	for _, r := range []*engineRig{ref, got} {
		if err := r.setTier(tier); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	var want, have BlockResult
	for used := 0; used < 1<<20 && !ref.ctx.Halted; used += int(want.Steps) {
		fuel := uint64(1 + rng.Intn(40))
		ref.err = ref.runReentering(block, fuel, budget, hz, &want)
		got.err = got.core.RunBlock(got.ctx, block, fuel, budget, hz, &have)
		if ref.err != nil || got.err != nil {
			break
		}
		if want != have {
			t.Fatalf("%s: call results diverge under %+v (%v tier, block=%v budget=%d fuel=%d):\n re-entering: %+v\n horizon:     %+v\n%s",
				label, hz, tier, block, budget, fuel, want, have, isa.Disassemble(prog))
		}
		if block && want.Stall > 0 {
			for _, r := range []*engineRig{ref, got} {
				r.ctx.StallCycles += want.Stall
				r.core.AdvanceIdle(want.Stall)
			}
		}
	}
	if tier == tierScalar || tier == tierBlock {
		assertNoTraces(t, label, ref)
		assertNoTraces(t, label, got)
	}
	assertRigsEqual(t, label, ref, got)
}

// TestHorizonVsReentry is the acceptance pin for the wake horizon: over
// random straight-line and looping programs — the generator scatters
// CYIELDs through them — one RunBlock call under a horizon is
// indistinguishable from the calls a loop would have made returning at
// every CYIELD, in coroutine and block mode, on the scalar dispatch, the
// block tier, the superblock tier and the superblock tier under an
// observer, under tight busy budgets and none.
func TestHorizonVsReentry(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 1200; trial++ {
		var prog *isa.Program
		if trial%3 == 0 {
			prog = randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096, trial%2 == 0)
		} else {
			prog = randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		}
		tier, block := allTiers[rng.Intn(len(allTiers))], rng.Intn(2) == 0
		var budget uint64
		if block || rng.Intn(2) == 0 {
			budget = uint64(1 + rng.Intn(16))
		}
		diffHorizon(t, "horizon-trial", prog, rng, tier, block, budget, horizonFromByte(uint8(rng.Intn(256))))
	}
}

// TestHorizonLoopSuperblock runs the shape the tier exists for — an
// instrumented scavenger loop, a CYIELD ahead of the latch — as one loop
// superblock: laps must accumulate across dormant yields (the batched
// Exec flush has to count the CYIELD's pc once per lap), the activation
// must end at the first CYIELD at or past the wake cycle, and the whole
// run must match the re-entering reference.
func TestHorizonLoopSuperblock(t *testing.T) {
	const cyieldPC = 4
	prog := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpMovI, Rd: 3, Imm: 1000},
		{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1}, // loop head
		{Op: isa.OpLoad, Rd: 4, Rs1: 13},
		{Op: isa.OpAddI, Rd: 3, Rs1: 3, Imm: -1},
		{Op: isa.OpCYield, Imm: int64(isa.RegMask(0xc).With(13))},
		{Op: isa.OpCmpI, Rs1: 3, Imm: 0},
		{Op: isa.OpJgt, Imm: 1},
		{Op: isa.OpHalt},
	}}
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	if err := rig.core.installSuperblocks([]sbSpec{{pcs: []int{1, 2, 3, 4, 5, 6}, loop: true}}); err != nil {
		t.Fatal(err)
	}
	hz := Horizon{Wake: 5000, Bound: 5200}
	var res BlockResult
	if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, hz, &res); err != nil {
		t.Fatal(err)
	}
	if !res.CondYield || res.LiveMask != isa.RegMask(0xc).With(13) {
		t.Fatalf("activation ended on %+v, want the waking CYIELD with its live mask", res)
	}
	if res.Dormant < 100 {
		t.Fatalf("only %d dormant yields before cycle %d: the loop did not stay in the tier", res.Dormant, hz.Wake)
	}
	if now := rig.core.Now; now < hz.Wake || res.DormantAt >= hz.Wake {
		t.Fatalf("woke at cycle %d, last dormant yield at %d: want them either side of %d", now, res.DormantAt, hz.Wake)
	}
	if got, want := rig.core.Counters.Exec[cyieldPC], res.Dormant+1; got != want {
		t.Fatalf("Exec[cyield] = %d after %d dormant yields and the waking one, want %d", got, res.Dormant, want)
	}

	rng := rand.New(rand.NewSource(3))
	for _, block := range []bool{false, true} {
		for _, hz := range []Horizon{{}, hz, horizonFromByte(255)} {
			diffHorizon(t, "loop-superblock", prog, rng, tierSuper, block, 0, hz)
			diffHorizon(t, "loop-superblock-budget", prog, rng, tierSuper, block, 7, hz)
			diffSuperProgram(t, "loop-superblock-vs-scalar", prog, rng, block, 7, hz)
		}
	}
}

// TestHorizonBoundaries sweeps the wake cycle and the re-base bound one
// cycle at a time across a unit-cost program, so every comparison the
// horizon adds is hit on its edge: a CYIELD that retires exactly at the
// wake cycle returns, one cycle earlier it is dormant, and the re-based
// budget stops the call exactly at the bound.
func TestHorizonBoundaries(t *testing.T) {
	addi := isa.Instr{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}
	cyield := isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)}
	prog := &isa.Program{}
	for _, n := range []int{2, 10, 5} {
		for i := 0; i < n; i++ {
			prog.Instrs = append(prog.Instrs, addi)
		}
		prog.Instrs = append(prog.Instrs, cyield)
	}
	prog.Instrs = append(prog.Instrs, addi, addi, isa.Instr{Op: isa.OpHalt})
	// Every instruction costs one cycle: the CYIELDs retire at 3, 14, 20.

	for _, tier := range allTiers {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
		if err := rig.setTier(tier); err != nil {
			t.Fatal(err)
		}
		// Wake one past the first yield, bound mid-way through the next
		// stretch: dormant at 3, budget 9−3, stop on it at 9.
		var res BlockResult
		if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{Wake: 4, Bound: 9}, &res); err != nil {
			t.Fatal(err)
		}
		if want := (BlockResult{Steps: 9, Busy: 6, Dormant: 1, DormantAt: 3}); res != want || rig.core.Now != 9 {
			t.Fatalf("%v tier: got %+v at cycle %d, want %+v at cycle 9", tier, res, rig.core.Now, want)
		}
		// Resume with the second yield retiring exactly on the wake cycle.
		if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, Horizon{Wake: 14, Bound: 30}, &res); err != nil {
			t.Fatal(err)
		}
		if want := (BlockResult{Steps: 5, Busy: 5, CondYield: true, LiveMask: isa.AllRegs}); res != want || rig.core.Now != 14 {
			t.Fatalf("%v tier: got %+v at cycle %d, want %+v at cycle 14", tier, res, rig.core.Now, want)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for wake := uint64(0); wake <= 24; wake++ {
		for bound := wake; bound <= wake+12; bound++ {
			for _, tier := range allTiers {
				for _, block := range []bool{false, true} {
					diffHorizon(t, "boundary", prog, rng, tier, block, 0, Horizon{Wake: wake, Bound: bound})
				}
			}
		}
	}
}
