package cpu

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the differential proof for lap skipping (sbLap, ahead):
// counting loops of every shape the summary admits — and the ones it
// must refuse — run in lockstep on three cores. One retires on the
// superblock tier under the horizon, where laps are skipped; one on the
// block tier (traces cleared, as exec.Config.DisableSuperblocks does)
// under the same horizon; one through runReentering, the zero-horizon
// reference that returns at every CYIELD. Every call must
// report the same BlockResult and leave the same registers, flags, pc,
// accounting, clock and lastBranchAt; every run must end with the same
// per-PC counters.

// countingLoop describes one generated loop. Its lap is a pair — the
// counter's increment (with a second register's and a nop, so more than
// one delta is in play) and the deciding cmpi, in either order — closed
// by the latch, with CYIELDs in the three slots around the pair:
//
//	[addi r5, r5, 1]           preamble
//	head: <slot 0> pair[0] <slot 1> pair[1] <slot 2>
//	      latch head
//	exit: mov r1, r2
//	      halt
//
// A top-tested loop decides on an exit instead: the cmpi is followed by
// `latch exit`, and `jmp head` closes the lap.
type countingLoop struct {
	latch     isa.Op
	topTested bool  // latch is an exit right after the cmpi, and a jmp closes the lap
	delta     int64 // what a lap adds to the counter, r3
	cmpFirst  bool  // the cmpi ahead of the increment it decides on
	yieldAt   []int // one CYIELD in each listed slot
	unroll    int   // extra `addi r2, r2, 1`s ahead of slot 0 (≥ sbAddISelfMin: an sbALUAddI step)
	preamble  bool  // one instruction ahead of the head: the loop is entered out of another trace
	start     int64 // r3 on entry
	imm       int64 // what the cmpi compares r3 with
}

func (l countingLoop) String() string {
	return fmt.Sprintf("%v topTested=%v delta=%d cmpFirst=%v yields=%v unroll=%d preamble=%v start=%d imm=%d",
		l.latch, l.topTested, l.delta, l.cmpFirst, l.yieldAt, l.unroll, l.preamble, l.start, l.imm)
}

// opposite maps a conditional branch to the one taken exactly when it is
// not.
var opposite = map[isa.Op]isa.Op{
	isa.OpJgt: isa.OpJle, isa.OpJle: isa.OpJgt,
	isa.OpJge: isa.OpJlt, isa.OpJlt: isa.OpJge,
	isa.OpJeq: isa.OpJne, isa.OpJne: isa.OpJeq,
}

// repeats is the latch taken exactly when the loop goes round again: its
// latch, or the opposite of its exit.
func (l countingLoop) repeats() isa.Op {
	if l.topTested {
		return opposite[l.latch]
	}
	return l.latch
}

// program assembles the loop; head is the target of the branch that
// closes the lap.
func (l countingLoop) program() (prog *isa.Program, head int) {
	var ins []isa.Instr
	if l.preamble {
		ins = append(ins, isa.Instr{Op: isa.OpAddI, Rd: 5, Rs1: 5, Imm: 1})
	}
	head = len(ins)
	for i := 0; i < l.unroll; i++ {
		ins = append(ins, isa.Instr{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1})
	}
	inc := []isa.Instr{
		{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 7},
		{Op: isa.OpNop},
		{Op: isa.OpAddI, Rd: 3, Rs1: 3, Imm: l.delta},
	}
	cmp := []isa.Instr{{Op: isa.OpCmpI, Rs1: 3, Imm: l.imm}}
	if l.topTested {
		cmp = append(cmp, isa.Instr{Op: l.latch}) // its target, exit, is patched below
	}
	pair := [2][]isa.Instr{inc, cmp}
	if l.cmpFirst {
		pair = [2][]isa.Instr{cmp, inc}
	}
	for slot := 0; slot <= 2; slot++ {
		for _, at := range l.yieldAt {
			if at == slot {
				ins = append(ins, isa.Instr{Op: isa.OpCYield, Imm: int64(isa.RegMask(0xc))})
			}
		}
		if slot < 2 {
			ins = append(ins, pair[slot]...)
		}
	}
	closing := l.latch
	if l.topTested {
		closing = isa.OpJmp
		for i := head; i < len(ins); i++ {
			if ins[i].Op == l.latch {
				ins[i].Imm = int64(len(ins) + 1)
			}
		}
	}
	ins = append(ins,
		isa.Instr{Op: closing, Imm: int64(head)},
		isa.Instr{Op: isa.OpMov, Rd: 1, Rs1: 2},
		isa.Instr{Op: isa.OpHalt},
	)
	return &isa.Program{Instrs: ins}, head
}

// lastLap returns the instructions and busy cycles the lap that leaves
// the loop retires under r's costs: the whole lap, or a top-tested one's
// up to its exit.
func (l countingLoop) lastLap(r *engineRig, head int) (instrs, cost uint64) {
	ins := r.core.Prog.Instrs
	for pc := head; ; pc++ {
		instrs++
		cost += r.core.costs[ins[pc].Op]
		if ins[pc].Op.IsConditional() || ins[pc].Op == isa.OpJmp {
			return instrs, cost
		}
	}
}

// lapCosts is the cost table the lap rigs run under: no two classes in a
// lap cost the same and none costs 1, so a cycle count can never pass
// for an instruction count.
func lapCosts() Config {
	cfg := DefaultConfig()
	cfg.CostALU, cfg.CostBranch, cfg.CostYield = 2, 3, 4
	return cfg
}

// lapDiff is one program on its three cores.
type lapDiff struct {
	label string
	prog  *isa.Program
	regs  [isa.NumRegs]uint64 // on entry, at pc 0
	skip  *engineRig          // superblock tier under the horizon: the tier under test
	block *engineRig          // block tier under the horizon
	reent *engineRig          // superblock tier, zero horizon, re-entered by hand
}

// Counting loops never touch memory, so every lap rig shares one image
// and one hierarchy instead of building its own.
var (
	lapMem  = mem.NewMemory(1 << 12)
	lapHier = mem.MustNewHierarchy(mem.DefaultConfig())
)

func newLapDiff(t *testing.T, label string, prog *isa.Program, regs [isa.NumRegs]uint64, cfg Config) *lapDiff {
	t.Helper()
	rig := func(super bool) *engineRig {
		r := &engineRig{core: MustNewCore(cfg, prog, lapMem, lapHier), ctx: &coro.Context{}, m: lapMem}
		if !super {
			r.core.ClearSuperblocks()
		} else if err := r.superTier(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return r
	}
	return &lapDiff{label: label, prog: prog, regs: regs, skip: rig(true), block: rig(false), reent: rig(true)}
}

// diff puts the loop on its cores; lap is the summary the tier under
// test compiled for it (zero: none).
func (l countingLoop) diff(t *testing.T, cfg Config) (d *lapDiff, head int, lap sbLap) {
	t.Helper()
	prog, head := l.program()
	d = newLapDiff(t, l.String(), prog, [isa.NumRegs]uint64{3: uint64(l.start)}, cfg)
	return d, head, d.skip.core.sbs[d.skip.core.sbEntry[head]].lap
}

// lapSchedule is one way of driving a loop: the mode, the per-call busy
// budget, the horizon, and the fuel of successive calls (cycled; 0 means
// all that is left of the step cap).
type lapSchedule struct {
	block  bool
	budget uint64
	hz     Horizon
	fuels  []uint64
	cap    uint64 // stop once this many instructions have retired
}

func (s lapSchedule) String() string {
	return fmt.Sprintf("block=%v budget=%d hz=%+v fuels=%v cap=%d", s.block, s.budget, s.hz, s.fuels, s.cap)
}

// run drives the three cores through s from the loop's entry state and
// holds them together call by call. It returns what the tier under test
// counted, so callers can assert that skipping happened (or could not).
func (d *lapDiff) run(t *testing.T, s lapSchedule) SuperblockStats {
	t.Helper()
	rigs := [3]*engineRig{d.block, d.reent, d.skip}
	for _, r := range rigs {
		*r.ctx = coro.Context{Regs: d.regs}
		*r.core.Counters = *NewCounters(len(d.prog.Instrs))
		r.core.Now, r.core.lastBranchAt, r.core.sbStats = 0, 0, SuperblockStats{}
	}
	fail := func(call int, what string, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\n under %v\n call %d: %s diverges from the tier under test:\n%s\n%s",
			d.label, s, call, what, fmt.Sprintf(format, args...), isa.Disassemble(d.prog))
	}
	var res [3]BlockResult
	used := uint64(0)
	for call := 0; used < s.cap && !d.skip.ctx.Halted; call++ {
		fuel := s.fuels[call%len(s.fuels)]
		if fuel == 0 || fuel > s.cap-used {
			fuel = s.cap - used
		}
		errs := [3]error{
			d.block.core.RunBlock(d.block.ctx, s.block, fuel, s.budget, s.hz, &res[0]),
			d.reent.runReentering(s.block, fuel, s.budget, s.hz, &res[1]),
			d.skip.core.RunBlock(d.skip.ctx, s.block, fuel, s.budget, s.hz, &res[2]),
		}
		for i, what := range []string{"the block tier", "the re-entering reference"} {
			r := rigs[i]
			switch {
			case errs[i] != nil || errs[2] != nil:
				fail(call, what, " errors %v vs %v", errs[i], errs[2])
			case res[i] != res[2]:
				fail(call, what, " result %+v\n     vs %+v", res[i], res[2])
			case *r.ctx != *d.skip.ctx:
				fail(call, what, " context %+v\n      vs %+v", *r.ctx, *d.skip.ctx)
			case r.core.Now != d.skip.core.Now || r.core.lastBranchAt != d.skip.core.lastBranchAt:
				fail(call, what, " clock %d, last branch at %d vs %d, %d",
					r.core.Now, r.core.lastBranchAt, d.skip.core.Now, d.skip.core.lastBranchAt)
			case !slices.Equal(r.core.Counters.Exec, d.skip.core.Counters.Exec):
				fail(call, what, " Exec %v\n   vs %v", r.core.Counters.Exec, d.skip.core.Counters.Exec)
			}
		}
		used += res[2].Steps
	}
	for i, what := range []string{"the block tier", "the re-entering reference"} {
		if !sameCounters(rigs[i].core.Counters, d.skip.core.Counters) {
			fail(-1, what, " counters %+v\n       vs %+v", rigs[i].core.Counters, d.skip.core.Counters)
		}
	}
	assertNoTraces(t, d.label, d.block)
	return d.skip.core.sbStats
}

// sameCounters is reflect.DeepEqual on Counters, spelled out: these tests
// compare a few hundred thousand pairs, and under the race detector
// reflection was most of their cost.
func sameCounters(a, b *Counters) bool {
	return a.Retired == b.Retired && a.Busy == b.Busy && a.Stall == b.Stall && a.Faults == b.Faults &&
		slices.Equal(a.Exec, b.Exec) && slices.Equal(a.Loads, b.Loads) && slices.Equal(a.Stores, b.Stores) &&
		slices.Equal(a.MissL2, b.MissL2) && slices.Equal(a.MissL3, b.MissL3) &&
		slices.Equal(a.StallCycles, b.StallCycles) && slices.Equal(a.AccWaits, b.AccWaits)
}

// lapYieldPlacements is every way of putting zero, one or two CYIELDs
// into the lap's three slots.
var lapYieldPlacements = [][]int{
	nil, {0}, {1}, {2}, {0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2},
}

var lapLatches = []isa.Op{isa.OpJgt, isa.OpJge, isa.OpJlt, isa.OpJle, isa.OpJeq, isa.OpJne}

// span lists lo, lo+1, …, hi.
func span(lo, hi uint64) []uint64 {
	s := make([]uint64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// affine returns x + n·d when that is an int64.
func affine(x int64, n uint64, d int64) (int64, bool) {
	v := new(big.Int).Mul(new(big.Int).SetUint64(n), big.NewInt(d))
	v.Add(v, big.NewInt(x))
	return v.Int64(), v.IsInt64()
}

// lapImmFor returns the immediate under which the latch is taken exactly
// trips times from a first compared value of first, when the latch and
// the counter's direction allow one: a loop counting up ends on jlt, jle
// or jne, one counting down on jgt, jge or jne. A top-tested loop asks
// with the latch it repeats on (countingLoop.repeats).
func lapImmFor(latch isa.Op, delta, first int64, trips uint64) (int64, bool) {
	end, ok := affine(first, trips, delta) // what the last, falling-through compare sees
	if !ok {
		return 0, false
	}
	switch {
	case latch == isa.OpJne, latch == isa.OpJlt && delta > 0, latch == isa.OpJgt && delta < 0:
		return end, true
	case latch == isa.OpJle && delta > 0:
		return affine(end, 1, -1)
	case latch == isa.OpJge && delta < 0:
		return affine(end, 1, 1)
	}
	return 0, false
}

// TestHorizonLapSkipLatches is the arithmetic half of the proof: the
// closed form for how long the deciding branch keeps the loop going.
// Every latch and every top-tested exit × counter delta × compare
// position, at trip counts from 0 to 10⁹ from start values around 0 and
// ±2⁶¹, and — where the latch and the direction make a loop that only a
// wrap can end — at start values and immediates on the int64 edges, so
// the wrap falls inside the window the references can interpret. Yield
// placement, mode, horizon, budget and fuel rotate through the
// population (TestHorizonLapSkipStops crosses them exhaustively); every
// loop also runs once cut at each instruction boundary of its first
// laps.
func TestHorizonLapSkipLatches(t *testing.T) {
	const (
		maxI = math.MaxInt64
		minI = math.MinInt64
	)
	rng := rand.New(rand.NewSource(20261004))
	cfg := lapCosts()
	var loops, summarised int
	var total SuperblockStats
	for _, shape := range []countingLoop{{}, {topTested: true}} {
		for _, latch := range lapLatches {
			shape.latch = latch
			repeats := shape.repeats()
			for _, delta := range []int64{1, -1, 3, -3, 1 << 40, -(1 << 40), minI} {
				for _, cmpFirst := range []bool{false, true} {
					off := delta // what the first compare sees beyond the start value
					if cmpFirst {
						off = 0
					}
					type point struct {
						start, imm int64
						trips      uint64 // for the closed-form check; ^0: unknown
					}
					var points []point
					for _, trips := range []uint64{0, 1, 2, 3, 1000, 1_000_000_000} {
						for _, start := range []int64{0, 1 << 61, -(1 << 61), 12345} {
							first, ok := affine(start, 1, off)
							if !ok {
								continue
							}
							if imm, ok := lapImmFor(repeats, delta, first, trips); ok {
								points = append(points, point{start, imm, trips})
							}
						}
					}
					// The int64 edges: a counter a few laps from wrapping in its
					// direction of travel (and one about to wrap the other way),
					// against immediates at and next to both ends and its own
					// neighbourhood. Whatever these loops do, they do it within
					// a few laps or run away; the window compares either.
					edge := int64(maxI)
					if delta < 0 {
						edge = minI
					}
					for _, lapsToWrap := range []uint64{0, 1, 2, 5} {
						start, ok := affine(edge, lapsToWrap, -delta)
						if !ok {
							continue
						}
						for _, imm := range []int64{minI, minI + 1, maxI - 1, maxI, 0, start, start + delta, start - delta} {
							points = append(points, point{start, imm, ^uint64(0)})
						}
					}
					for _, nudge := range []int64{-1, 0, 1} {
						points = append(points, point{nudge - edge, nudge, ^uint64(0)}, point{0, edge - nudge, ^uint64(0)})
					}
					// Far from every edge: taken from the first lap or never,
					// whichever the latch and direction make of it.
					points = append(points, point{0, -7, ^uint64(0)}, point{0, 7, ^uint64(0)}, point{5, 5, ^uint64(0)})

					for _, p := range points {
						l := shape
						l.delta, l.cmpFirst = delta, cmpFirst
						l.yieldAt = lapYieldPlacements[loops%len(lapYieldPlacements)]
						l.preamble = loops%3 == 0
						l.start, l.imm = p.start, p.imm
						loops++
						d, head, lap := l.diff(t, cfg)
						if want := repeats != isa.OpJeq && repeats != isa.OpJne &&
							!(repeats == isa.OpJgt && p.imm == maxI) && !(repeats == isa.OpJlt && p.imm == minI); (lap.instrs != 0) != want {
							t.Fatalf("%v: summarised = %v, want %v", l, lap.instrs != 0, want)
						}
						if lap.instrs != 0 {
							summarised++
						}
						lapLen := uint64(len(d.prog.Instrs) - 2 - head)

						// One free run: nothing but the latch (or the window) ends it.
						// The references walk to the exit of a 1 000-trip loop;
						// everything else shows what it will within 2 048 steps.
						window := uint64(1 << 11)
						if p.trips == 1000 {
							window = 1 << 13
						}
						free := lapSchedule{block: loops%2 == 0, hz: horizonFromByte(255), fuels: []uint64{0}, cap: window}
						st := d.run(t, free)
						total.LapsSkipped += st.LapsSkipped
						if lap.instrs != 0 && p.trips != ^uint64(0) && p.trips >= 1000 {
							// All but the last few laps inside the window must have
							// been skipped, not interpreted.
							if st.LapsInterpreted > 4*st.Activations || st.LapsSkipped == 0 {
								t.Fatalf("%v: free run interpreted %d laps in %d activations, skipped %d",
									l, st.LapsInterpreted, st.Activations, st.LapsSkipped)
							}
						}
						// The same under a drawn horizon, budget and fuel rhythm.
						drawn := lapSchedule{
							block: rng.Intn(2) == 0,
							hz:    horizonFromByte(uint8(rng.Intn(256))),
							fuels: []uint64{uint64(1 + rng.Intn(int(6*lapLen))), uint64(rng.Intn(int(40 * lapLen)))},
							cap:   window,
						}
						if rng.Intn(2) == 0 {
							drawn.budget = uint64(1 + rng.Intn(200))
						}
						d.run(t, drawn)
						// And cut at every instruction boundary of the first laps:
						// every call gets the same small fuel, so the cuts precess
						// through the lap and the skip restarts from each.
						for fuel := uint64(1); fuel <= 3*lapLen+1; fuel += 1 + uint64(rng.Intn(3)) {
							d.run(t, lapSchedule{block: drawn.block, hz: free.hz, fuels: []uint64{fuel}, cap: 12 * lapLen})
						}

						// A trip count the references cannot walk is held to its
						// closed form instead: run the tier under test alone to the
						// halt and compare with what trips+1 laps must leave.
						if p.trips == 1_000_000_000 && lap.instrs != 0 {
							l.finish(t, d.skip, head, lap.cost, p.trips)
						}
					}
				}
			}
		}
	}
	if summarised == 0 || total.LapsSkipped == 0 {
		t.Fatalf("%d loops, %d summarised, %d laps skipped: the differential ran on the interpreter alone", loops, summarised, total.LapsSkipped)
	}
	t.Logf("%d loops (%d summarised), %d laps skipped", loops, summarised, total.LapsSkipped)
}

// finish runs r, the tier under test, from wherever the last schedule
// left it to the halt, under a horizon that never wakes, and checks the
// end state against the closed form for a loop that goes round again
// trips times: trips whole laps and the last one (lastLap) of every
// register delta, cost and per-PC count.
func (l countingLoop) finish(t *testing.T, r *engineRig, head int, lapCost, trips uint64) {
	t.Helper()
	r.core.sbStats = SuperblockStats{}
	var res BlockResult
	for !r.ctx.Halted {
		if err := r.core.RunBlock(r.ctx, false, ^uint64(0), 0, horizonFromByte(255), &res); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
	lapLen := uint64(len(r.core.Prog.Instrs) - 2 - head)
	last, lastCost := l.lastLap(r, head)
	pre := uint64(head)
	wantRetired := pre + trips*lapLen + last + 2
	wantNow := pre*r.core.Cfg.CostALU + trips*lapCost + lastCost + r.core.Cfg.CostALU + 1 // preamble, laps, mov, halt
	// The registers after trips whole laps, then the last lap's increments.
	wantR3 := uint64(l.start) + trips*uint64(l.delta)
	wantR2 := trips * uint64(7+l.unroll)
	for _, in := range r.core.Prog.Instrs[head : head+int(last)] {
		switch {
		case in.Op == isa.OpAddI && in.Rd == 3:
			wantR3 += uint64(in.Imm)
		case in.Op == isa.OpAddI && in.Rd == 2:
			wantR2 += uint64(in.Imm)
		}
	}
	switch {
	case r.ctx.Retired != wantRetired, r.core.Now != wantNow, r.ctx.Regs[3] != wantR3, r.ctx.Regs[2] != wantR2, r.ctx.Result != wantR2:
		t.Fatalf("%v: after %d laps and %d instructions: retired %d (want %d), clock %d (want %d), r3 %#x (want %#x), r2 %d, result %d (want %d)",
			l, trips, last, r.ctx.Retired, wantRetired, r.core.Now, wantNow, r.ctx.Regs[3], wantR3, r.ctx.Regs[2], r.ctx.Result, wantR2)
	}
	for pc := head; pc < head+int(lapLen); pc++ {
		want := trips
		if pc < head+int(last) {
			want++
		}
		if got := r.core.Counters.Exec[pc]; got != want {
			t.Fatalf("%v: Exec[%d] = %d after %d laps, want %d", l, pc, got, trips, want)
		}
	}
	if st := r.core.sbStats; st.LapsInterpreted > 4*st.Activations {
		t.Fatalf("%v: interpreted %d laps in %d activations on the way to the halt", l, st.LapsInterpreted, st.Activations)
	}
}

// TestHorizonLapSkipStops is the other half: everything that can end a
// skip short of the latch. Every placement of zero, one or two CYIELDs ×
// coroutine and block mode, on a loop counting down to a jgt and one
// counting up by threes to a jle, and top-tested ones leaving on each of
// jle and jlt counting down and jge and jgt counting up — compare before
// and after the increment, 1 000 and 10⁹ trips long, entered directly and out of a
// preamble trace, with and without an sbALUAddI step in the lap, all
// rotating against the placements — each with
//
//   - the wake cycle swept one cycle at a time across the lap boundaries
//     at the start of the run, forty laps in and (where the references
//     can walk there) at the loop's end, under bounds at and past it, and
//     the bound swept one cycle at a time past a fixed wake;
//   - every call's fuel swept one instruction at a time from 1 to past
//     five laps, and the first call's across the two laps before the
//     loop's end;
//   - every call's busy budget swept one cycle at a time from 1 to past
//     four laps and across a lap boundary forty laps out, under the zero
//     horizon, one that never wakes and one in between.
//
// A free CYIELD (CostYield 0: two yields can retire on one clock) is run
// through the same sweeps on one loop.
func TestHorizonLapSkipStops(t *testing.T) {
	var total SuperblockStats
	sweep := func(l countingLoop, cfg Config, trips uint64) {
		first := l.start + l.delta
		if l.cmpFirst {
			first = l.start
		}
		var ok bool
		if l.imm, ok = lapImmFor(l.repeats(), l.delta, first, trips); !ok {
			t.Fatalf("%v: no immediate for %d trips", l, trips)
		}
		d, head, lap := l.diff(t, cfg)
		if lap.instrs == 0 {
			t.Fatalf("%v: not summarised", l)
		}
		lapLen, lapCost := uint64(lap.instrs), lap.cost
		last, lastCost := l.lastLap(d.skip, head)
		pre := uint64(head) * cfg.CostALU // clock at the first trace head
		window := 46 * lapLen             // what a sweep that must reach forty laps out walks
		short := 10 * lapLen              // and one whose stops all fall in the first laps
		walkable := trips <= 1000
		toEnd := (trips+3)*lapLen + 8 // enough to halt
		never := horizonFromByte(255)
		run := func(s lapSchedule) {
			st := d.run(t, s)
			total.Activations += st.Activations
			total.LapsSkipped += st.LapsSkipped
		}

		for _, block := range []bool{false, true} {
			// Wake, one cycle at a time across lap boundaries.
			boundaries := []uint64{0, 1, 2, 40}
			if walkable {
				boundaries = append(boundaries, trips-1, trips, trips+1)
			}
			for _, nth := range boundaries {
				at := pre + nth*lapCost
				cap, pasts := short, []uint64{0, 1, 3*lapCost + 1}
				switch {
				case nth > 40:
					// Each of these walks the whole loop on the references:
					// one mode and two bounds per wake cycle, alternating.
					cap, pasts = toEnd, pasts[:2]
				case nth == 40:
					cap = window
				}
				for wake := at - min(at, 1); wake <= at+lapCost+1; wake++ {
					if nth > 40 && block != (wake%2 == 0) {
						continue
					}
					for _, past := range pasts {
						run(lapSchedule{block: block, hz: Horizon{Wake: wake, Bound: wake + past*(1+wake%lapCost)}, fuels: []uint64{0}, cap: cap})
					}
				}
			}
			// Bound, one cycle at a time past a wake inside the third lap.
			wake := pre + 2*lapCost + 1
			for bound := wake; bound <= wake+2*lapCost+1; bound++ {
				run(lapSchedule{block: block, hz: Horizon{Wake: wake, Bound: bound}, fuels: []uint64{0}, cap: short})
			}

		}

		// Fuel and budget are the long sweeps, and with no memory step in a
		// lap the mode changes nothing a stop can see: it alternates along
		// each instead of doubling it.
		mid := Horizon{Wake: pre + 20*lapCost + 1, Bound: pre + 21*lapCost + 3}
		// Fuel: every call the same, from one instruction to past five
		// laps; the later calls start wherever in a lap the cut fell.
		for fuel := uint64(1); fuel <= 5*lapLen+2; fuel++ {
			run(lapSchedule{block: fuel%2 == 0, hz: never, fuels: []uint64{fuel}, cap: short + 3*fuel})
			run(lapSchedule{block: fuel%2 == 1, hz: mid, fuels: []uint64{fuel}, cap: 24 * lapLen})
		}
		// Budget: every call the same.
		for _, budget := range append(span(1, 4*lapCost+2), span(40*lapCost-1, 41*lapCost+1)...) {
			cap := short + 3*(budget/lapCost)*lapLen/2 // a call and a half's worth and more
			run(lapSchedule{block: budget%2 == 0, budget: budget, hz: Horizon{}, fuels: []uint64{0}, cap: cap})
			run(lapSchedule{block: budget%2 == 1, budget: budget, hz: never, fuels: []uint64{0}, cap: cap})
			run(lapSchedule{block: budget%2 == 0, budget: budget, hz: mid, fuels: []uint64{0}, cap: max(cap, 24*lapLen)})
		}
		if walkable {
			// Fuel: the first call cut inside the two laps before the end.
			end := uint64(head) + trips*lapLen + last
			for fuel := end - 2*lapLen - 1; fuel <= end+2; fuel++ {
				run(lapSchedule{block: fuel%2 == 0, hz: never, fuels: []uint64{fuel, 0}, cap: toEnd})
			}
			// Budget: one call's, ending inside the two laps before the end
			// (a lap that yields re-bases it long before).
			if end := pre + trips*lapCost + lastCost; lap.yields == 0 {
				for budget := end - 2*lapCost - 1; budget <= end+2; budget++ {
					run(lapSchedule{block: budget%2 == 0, budget: budget, hz: Horizon{}, fuels: []uint64{0}, cap: toEnd})
				}
			}
		}
	}

	cfg := lapCosts()
	shapes := []countingLoop{
		{latch: isa.OpJgt, delta: -1},
		{latch: isa.OpJle, delta: 3, start: -(1 << 61)},
		{latch: isa.OpJle, topTested: true, delta: -1}, // workloads.PaddedChase's filler loop
		{latch: isa.OpJlt, topTested: true, delta: -1},
		{latch: isa.OpJge, topTested: true, delta: 3, start: -(1 << 61)},
		{latch: isa.OpJgt, topTested: true, delta: 3, start: 1 << 61},
	}
	for si, shape := range shapes {
		for pi, yieldAt := range lapYieldPlacements {
			// Compare position, entry, lap shape and trip count rotate
			// against the yield placements (TestHorizonLapSkipLatches
			// crosses the first with everything the closed form reads); the
			// second shape meets each placement with the other parity.
			n := pi + 11*si
			l := shape
			l.yieldAt, l.cmpFirst, l.preamble = yieldAt, n%2 == 0, n/2%2 == 1
			if n%3 == 2 {
				l.unroll = sbAddISelfMin + 1
			}
			trips := uint64(1000)
			if n%4 >= 2 {
				trips = 1_000_000_000
			}
			if l.delta < 0 {
				l.start = int64(trips) // counts down to zero
			}
			sweep(l, cfg, trips)
		}
	}
	free := cfg
	free.CostYield = 0
	sweep(countingLoop{latch: isa.OpJgt, delta: -1, start: 1000, yieldAt: []int{1, 1}}, free, 1000)
	sweep(countingLoop{latch: isa.OpJgt, delta: -1, start: 1000, yieldAt: []int{0, 2}, cmpFirst: true}, free, 999)

	if total.LapsSkipped == 0 {
		t.Fatal("no lap was ever skipped: the sweeps ran on the interpreter alone")
	}
	t.Logf("%d activations, %d laps skipped", total.Activations, total.LapsSkipped)
}

// TestLapSummaryRefusals pins what summariseLap must not summarise: a
// lap that is not an affine step of the registers alone, or a deciding
// branch whose outcome is not a threshold on one of them. Each runs
// (unskipped) as before, which the differentials above and the fuzzers
// cover; here only the structural test is checked, against the shapes it
// must accept: a latch, or a top-tested exit.
func TestLapSummaryRefusals(t *testing.T) {
	lap := func(body ...isa.Instr) *isa.Program {
		return &isa.Program{Instrs: append(body, isa.Instr{Op: isa.OpHalt})}
	}
	// top closes body with a jmp back to the head; its exits leave for
	// the halt after that.
	const out = -1
	top := func(body ...isa.Instr) *isa.Program {
		body = append(body, isa.Instr{Op: isa.OpJmp})
		for i := range body {
			if body[i].Op.IsConditional() && body[i].Imm == out {
				body[i].Imm = int64(len(body))
			}
		}
		return lap(body...)
	}
	exit := func(op isa.Op) isa.Instr { return isa.Instr{Op: op, Imm: out} }
	addi := isa.Instr{Op: isa.OpAddI, Rd: 3, Rs1: 3, Imm: -1}
	cmpi := isa.Instr{Op: isa.OpCmpI, Rs1: 3}
	jgt := isa.Instr{Op: isa.OpJgt}
	cases := []struct {
		name string
		prog *isa.Program
		want bool
	}{
		{"counting loop", lap(addi, isa.Instr{Op: isa.OpCYield}, isa.Instr{Op: isa.OpNop}, cmpi, jgt), true},
		{"two compares: the last decides", lap(isa.Instr{Op: isa.OpCmpI, Rs1: 2, Imm: 9}, addi, cmpi, jgt), true},
		{"load in the lap", lap(addi, isa.Instr{Op: isa.OpLoad, Rd: 4, Rs1: 13}, cmpi, jgt), false},
		{"store in the lap", lap(addi, isa.Instr{Op: isa.OpStore, Rs1: 13, Rs2: 3}, cmpi, jgt), false},
		{"non-self addi", lap(isa.Instr{Op: isa.OpAddI, Rd: 3, Rs1: 4, Imm: -1}, cmpi, jgt), false},
		{"movi", lap(addi, isa.Instr{Op: isa.OpMovI, Rd: 4, Imm: 1}, cmpi, jgt), false},
		{"register-register add", lap(addi, isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 3}, cmpi, jgt), false},
		{"register-register compare", lap(addi, isa.Instr{Op: isa.OpCmp, Rs1: 3, Rs2: 4}, jgt), false},
		{"no compare", lap(addi, isa.Instr{Op: isa.OpNop}, jgt), false},
		{"interior branch", lap(addi, isa.Instr{Op: isa.OpJeq, Imm: 2}, cmpi, jgt), false},
		{"jne latch", lap(addi, cmpi, isa.Instr{Op: isa.OpJne}), false},
		{"jeq latch", lap(addi, cmpi, isa.Instr{Op: isa.OpJeq}), false},
		{"jmp latch", lap(addi, cmpi, isa.Instr{Op: isa.OpJmp}), false},
		{"jgt no value can take", lap(addi, isa.Instr{Op: isa.OpCmpI, Rs1: 3, Imm: math.MaxInt64}, jgt), false},
		{"jlt no value can take", lap(addi, isa.Instr{Op: isa.OpCmpI, Rs1: 3, Imm: math.MinInt64}, isa.Instr{Op: isa.OpJlt}), false},
		{"top-tested loop", top(cmpi, exit(isa.OpJle), isa.Instr{Op: isa.OpCYield}, addi, isa.Instr{Op: isa.OpNop}), true},
		{"top-tested, compare after the increment", top(addi, cmpi, exit(isa.OpJlt)), true},
		{"jeq exit", top(cmpi, exit(isa.OpJeq), addi), false},
		{"jne exit", top(cmpi, exit(isa.OpJne), addi), false},
		{"two exits", top(cmpi, exit(isa.OpJle), addi, exit(isa.OpJgt)), false},
		{"exit before any compare", top(exit(isa.OpJle), cmpi, addi), false},
		{"exit at the head and one after the compare", top(exit(isa.OpJgt), cmpi, exit(isa.OpJle), addi), false},
		{"compare after the exit", top(cmpi, exit(isa.OpJle), addi, isa.Instr{Op: isa.OpCmpI, Rs1: 2, Imm: 9}), false},
		{"exit and a conditional latch", lap(cmpi, isa.Instr{Op: isa.OpJle, Imm: 4}, addi, jgt), false},
		{"exit no value can leave the loop on", top(isa.Instr{Op: isa.OpCmpI, Rs1: 3, Imm: math.MaxInt64}, exit(isa.OpJle), addi), false},
	}
	for _, tc := range cases {
		core := MustNewCore(DefaultConfig(), tc.prog, lapMem, lapHier)
		pcs := make([]int, len(tc.prog.Instrs)-1)
		for i := range pcs {
			pcs[i] = i
		}
		if err := core.installSuperblocks([]sbSpec{{pcs: pcs, loop: true}}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := core.sbs[0].lap.instrs != 0; got != tc.want {
			t.Errorf("%s: summarised = %v, want %v\n%s", tc.name, got, tc.want, isa.Disassemble(tc.prog))
		}
	}
	// An exit the trace predicts taken is no exit: here it skips a nop
	// inside the lap.
	skip := lap(cmpi, isa.Instr{Op: isa.OpJle, Imm: 3}, isa.Instr{Op: isa.OpNop}, addi, isa.Instr{Op: isa.OpJmp})
	core := MustNewCore(DefaultConfig(), skip, lapMem, lapHier)
	if err := core.installSuperblocks([]sbSpec{{pcs: []int{0, 1, 3, 4}, loop: true}}); err != nil {
		t.Fatal(err)
	}
	if core.sbs[0].lap.instrs != 0 {
		t.Errorf("exit predicted taken: summarised\n%s", isa.Disassemble(skip))
	}

	// A lap that costs 2^32 cycles or more is refused too, keeping 2·(lap
	// cost) from wrapping: with every ALU op at mem.MaxCycles, 2^12 of
	// them reach it. The same lap under the default costs is summarised.
	body := make([]isa.Instr, 1<<12, 1<<12+2)
	for i := range body {
		body[i] = addi
	}
	long := lap(append(body, cmpi, jgt)...)
	pcs := make([]int, len(long.Instrs)-1)
	for i := range pcs {
		pcs[i] = i
	}
	huge := DefaultConfig()
	huge.CostALU = mem.MaxCycles
	for _, cfg := range []Config{DefaultConfig(), huge} {
		core := MustNewCore(cfg, long, lapMem, lapHier)
		if err := core.installSuperblocks([]sbSpec{{pcs: pcs, loop: true}}); err != nil {
			t.Fatal(err)
		}
		if got, want := core.sbs[0].lap.instrs != 0, cfg.CostALU == 1; got != want {
			t.Errorf("a %d-instruction lap at CostALU %d: summarised = %v, want %v", len(pcs), cfg.CostALU, got, want)
		}
	}
}
