package smt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the differential proof for whole rounds retired in closed
// form (exec.SMT's skipRounds). A scenario — hardware threads in counting loops
// and pointer chasers, started anywhere in their laps, under one quantum
// and one cost table — runs on two cores: one with the superblock tier,
// whose counting loops carry lap summaries, so quiet rounds are skipped;
// one with its traces cleared, which has no summaries and so no skip: the
// per-slice reference. Both must end identical: the run's
// error, exec.Stats and clock, every context (pc, registers, flags, busy
// cycles, retired instructions), every per-PC counter and, under the
// serve-style source, the cycle of every halt.

// roundLoop is one counting loop of a scenario's program:
//
//	head: nop × pad
//	      [cmpi r2, 7]          (decoy: flags the latch must not read)
//	      addi r2, r2, 1
//	      addi r3, r3, delta    (cmpFirst: after the compare)
//	      cmpi r3, imm
//	      [cyield]              (yield: a lap no round may contain)
//	      latch head
//	exit: mov r1, r2
//	      halt
//
// A top-tested loop leaves on `latch exit` right after the compare, and
// `jmp head` closes its lap.
type roundLoop struct {
	latch     isa.Op
	delta     int64
	imm       int64
	pad       int
	cmpFirst  bool
	decoy     bool
	yield     bool
	topTested bool
}

func (l roundLoop) lapLen() int {
	n := l.pad + 4
	if l.decoy {
		n++
	}
	if l.yield {
		n++
	}
	if l.topTested {
		n++
	}
	return n
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
func (l roundLoop) repeats() isa.Op {
	if l.topTested {
		return opposite[l.latch]
	}
	return l.latch
}

// topTest returns l leaving on an exit where it would have fallen
// through its latch: the same laps, one instruction longer.
func (l roundLoop) topTest() roundLoop {
	l.topTested, l.latch = true, opposite[l.latch]
	return l
}

// roundThread is where one hardware thread starts: in loop (-1: the
// chaser), at offset into the lap, with r3 the counter (the chaser's hop
// count) and flags as the compare before the start left them.
type roundThread struct {
	loop, at int
	r3       int64
	flags    int
}

// roundScenario is one program and its threads. The fixed-set run puts
// threads on the ring; the serve-style run parks the first slots ring
// entries until arrivals arm them with requests, one each in turn, and
// restarts every other entry from its thread at each halt.
type roundScenario struct {
	cost     cpu.Config
	quantum  uint64
	fuel     uint64
	loops    []roundLoop
	threads  []roundThread
	slots    int
	requests []roundThread
	arrivals []uint64
	observe  bool // attach an observer, which must turn every skip off
}

func (s *roundScenario) String() string {
	return fmt.Sprintf("quantum %d, ALU %d, branch %d, fuel %d\n loops %+v\n threads %+v\n slots %d, requests %+v\n arrivals %v",
		s.quantum, s.cost.CostALU, s.cost.CostBranch, s.fuel, s.loops, s.threads, s.slots, s.requests, s.arrivals)
}

// program lays out the loops, then the chaser; heads[i] is loop i's head.
func (s *roundScenario) program() (prog *isa.Program, heads []int, chase int) {
	var ins []isa.Instr
	for _, l := range s.loops {
		head := len(ins)
		heads = append(heads, head)
		for i := 0; i < l.pad; i++ {
			ins = append(ins, isa.Instr{Op: isa.OpNop})
		}
		if l.decoy {
			ins = append(ins, isa.Instr{Op: isa.OpCmpI, Rs1: 2, Imm: 7})
		}
		inc := []isa.Instr{{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1}, {Op: isa.OpAddI, Rd: 3, Rs1: 3, Imm: l.delta}}
		cmp := []isa.Instr{{Op: isa.OpCmpI, Rs1: 3, Imm: l.imm}}
		closing := isa.Instr{Op: l.latch, Imm: int64(head)}
		if l.topTested {
			cmp = append(cmp, isa.Instr{Op: l.latch, Imm: int64(head + l.lapLen())})
			closing.Op = isa.OpJmp
		}
		if l.cmpFirst {
			ins = append(append(ins, cmp...), inc...)
		} else {
			ins = append(append(ins, inc...), cmp...)
		}
		if l.yield {
			ins = append(ins, isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)})
		}
		ins = append(ins,
			closing,
			isa.Instr{Op: isa.OpMov, Rd: 1, Rs1: 2},
			isa.Instr{Op: isa.OpHalt})
	}
	chase = len(ins)
	ins = append(ins,
		isa.Instr{Op: isa.OpLoad, Rd: 1, Rs1: 1},
		isa.Instr{Op: isa.OpAddI, Rd: 3, Rs1: 3, Imm: -1},
		isa.Instr{Op: isa.OpCmpI, Rs1: 3},
		isa.Instr{Op: isa.OpJgt, Imm: int64(chase)},
		isa.Instr{Op: isa.OpHalt})
	return &isa.Program{Instrs: ins}, heads, chase
}

// machine builds the scenario's core, with the superblock tier when super
// and a recording observer when s.observe, a context per ring entry, and
// arm, which starts a context over as a thread (each ring entry chases its
// own chain).
func (s *roundScenario) machine(super bool) (*cpu.Core, []*coro.Context, func(*coro.Context, roundThread), *recorder) {
	prog, heads, chase := s.program()
	m := mem.NewMemory(4 << 20)
	core := cpu.MustNewCore(s.cost, prog, m, mem.MustNewHierarchy(tinyCaches()))
	if !super {
		core.ClearSuperblocks()
	}
	var rec *recorder
	if s.observe {
		rec = &recorder{}
		core.Observe(rec)
	}
	ctxs := make([]*coro.Context, len(s.threads))
	chains := make([]uint64, len(s.threads))
	for i := range ctxs {
		ctxs[i] = coro.NewContext(i, 0, m.Size()-uint64(i+1)*4096)
		chains[i] = buildChain(m, 128, int64(i))
	}
	arm := func(ctx *coro.Context, th roundThread) {
		ctx.Regs = [isa.NumRegs]uint64{isa.SP: ctx.Regs[isa.SP]}
		ctx.PC = chase
		ctx.Regs[1] = chains[ctx.ID]
		if th.loop >= 0 {
			ctx.PC = heads[th.loop] + th.at
		}
		ctx.Regs[3] = uint64(th.r3)
		ctx.Flags = th.flags
		ctx.Halted = false
	}
	return core, ctxs, arm, rec
}

// recorder keeps every event an observer sees.
type recorder struct {
	retires  []cpu.RetireEvent
	branches []cpu.BranchEvent
}

func (r *recorder) OnRetire(e cpu.RetireEvent) { r.retires = append(r.retires, e) }
func (r *recorder) OnBranch(e cpu.BranchEvent) { r.branches = append(r.branches, e) }

// roundRun is everything a run leaves that the two cores must agree on,
// and what the loop counted.
type roundRun struct {
	err      string
	st       exec.Stats
	now      uint64
	ctxs     []coro.Context
	counters cpu.Counters
	halts    []uint64
	events   *recorder
	rounds   exec.RoundStats
}

func outcome(core *cpu.Core, ctxs []*coro.Context, err error, st exec.Stats, halts []uint64, events *recorder, l *exec.SMT) roundRun {
	r := roundRun{st: st, now: core.Now, counters: *core.Counters, halts: halts, events: events, rounds: l.RoundStats()}
	if err != nil {
		r.err = err.Error()
	}
	for _, c := range ctxs {
		r.ctxs = append(r.ctxs, *c)
	}
	return r
}

// diff describes how r departs from the reference run ref ("" if not).
func (r roundRun) diff(ref roundRun) string {
	switch {
	case r.err != ref.err:
		return fmt.Sprintf("error %q, reference %q", r.err, ref.err)
	case !reflect.DeepEqual(r.st, ref.st):
		return fmt.Sprintf("stats %+v\n  reference %+v", r.st, ref.st)
	case r.now != ref.now:
		return fmt.Sprintf("clock %d, reference %d", r.now, ref.now)
	case !slices.Equal(r.halts, ref.halts):
		return fmt.Sprintf("halts at %v\n  reference %v", r.halts, ref.halts)
	case !reflect.DeepEqual(r.counters, ref.counters):
		return fmt.Sprintf("counters %+v\n  reference %+v", r.counters, ref.counters)
	case !reflect.DeepEqual(r.events, ref.events):
		return "the observer saw other events"
	}
	for i := range r.ctxs {
		if r.ctxs[i] != ref.ctxs[i] {
			return fmt.Sprintf("context %d %+v\n  reference %+v", i, r.ctxs[i], ref.ctxs[i])
		}
	}
	return ""
}

// drive runs l to the end: in one call, or cut at deadlines cuts draws.
func drive(l exec.Loop, core *cpu.Core, cuts *rand.Rand) error {
	if cuts == nil {
		_, err := l.Run(exec.NoDeadline)
		return err
	}
	for deadline := core.Now; ; {
		deadline += 1 + uint64(cuts.Intn(1<<cuts.Intn(13)))
		if done, err := l.Run(deadline); done || err != nil {
			return err
		}
	}
}

// runFixed runs the threads to their halts as a Ticker over a FixedSet.
func (s *roundScenario) runFixed(t *testing.T, super bool, cuts *rand.Rand) roundRun {
	t.Helper()
	core, ctxs, arm, rec := s.machine(super)
	for i, th := range s.threads {
		arm(ctxs[i], th)
	}
	tk, err := exec.New(core, exec.Config{MaxSteps: s.fuel}).NewSMTTicker(tasks(ctxs), s.quantum)
	if err != nil {
		t.Fatal(err)
	}
	err = drive(tk, core, cuts)
	return outcome(core, ctxs, err, tk.Stats(), nil, rec, tk.Loop.(*exec.SMT))
}

// tasks wraps contexts as exec tasks, leaving their modes alone.
func tasks(ctxs []*coro.Context) []*exec.Task {
	var ts []*exec.Task
	for _, ctx := range ctxs {
		ts = append(ts, &exec.Task{Ctx: ctx})
	}
	return ts
}

// runServe runs an SMT loop fed by rearming until every request has halted.
func (s *roundScenario) runServe(t *testing.T, super bool, cuts *rand.Rand) roundRun {
	t.Helper()
	core, ctxs, arm, rec := s.machine(super)
	src := &rearming{core: core, ring: ctxs, arm: arm, slots: s.slots, requests: s.requests, background: s.threads, arrivals: s.arrivals}
	for i, ctx := range ctxs {
		if i < s.slots {
			ctx.Halted = true
		} else {
			arm(ctx, s.threads[i])
		}
	}
	l := exec.New(core, exec.Config{MaxSteps: s.fuel}).NewSMT(tasks(ctxs), s.quantum, src)
	err := drive(l, core, cuts)
	return outcome(core, ctxs, err, exec.Stats{}, src.halts, rec, l)
}

// rearming is a serve-style source, internal/service's cell in miniature:
// ring entries below slots are request slots, parked (halted) until an
// arrival arms one with the next request — a slot can be ahead of a
// running thread in scan order — and every other entry restarts from its
// background thread at each halt. Poll admits what is due and changes
// nothing until the next arrival, as exec.Source requires. halts records
// the cycle of every halt.
type rearming struct {
	core       *cpu.Core
	ring       []*coro.Context
	arm        func(*coro.Context, roundThread)
	slots      int
	requests   []roundThread // one per arrival, armed in turn
	background []roundThread // background[i] restarts ring entry i
	arrivals   []uint64      // ascending
	due, armed int           // arrivals admitted, requests armed
	done       int           // requests halted
	halts      []uint64
}

func (s *rearming) Pending() bool { return s.done < len(s.arrivals) }

func (s *rearming) Poll() uint64 {
	for s.due < len(s.arrivals) && s.arrivals[s.due] <= s.core.Now {
		s.due++
	}
	for i := 0; i < s.slots && s.armed < s.due; i++ {
		if s.ring[i].Halted {
			s.arm(s.ring[i], s.requests[s.armed])
			s.armed++
		}
	}
	if s.due < len(s.arrivals) {
		return s.arrivals[s.due]
	}
	return exec.NoHorizon
}

func (s *rearming) OnHalt(i int) (bool, error) {
	s.halts = append(s.halts, s.core.Now)
	if i < s.slots {
		s.done++
	} else {
		s.arm(s.ring[i], s.background[i])
	}
	return true, nil
}

// roundCost is the default cost table with the ALU and branch costs
// replaced, so that lap costs land on and off the quanta's divisors.
func roundCost(alu, branch uint64) cpu.Config {
	c := cpu.DefaultConfig()
	c.CostALU, c.CostBranch = alu, branch
	return c
}

var (
	roundCosts  = []cpu.Config{roundCost(1, 1), roundCost(2, 3), roundCost(1, 2)}
	roundQuanta = []uint64{1, 2, 3, 4, 8, 12}
)

// lapCost is what one lap of l costs under the cost table c.
func (l roundLoop) lapCost(c cpu.Config) uint64 {
	cost := uint64(l.pad) + 3*c.CostALU + c.CostBranch // nops cost 1
	if l.decoy {
		cost += c.CostALU
	}
	if l.yield {
		cost += c.CostYield
	}
	if l.topTested {
		cost += c.CostBranch
	}
	return cost
}

// drawRoundLoop draws a loop: one counting down to its immediate, one
// counting up to it, one only the int64 wrap ends, or a jne latch (no
// summary); one in four has a decoy compare, one in eight a CYIELD in its
// lap (no quiet round).
func drawRoundLoop(rng *rand.Rand) roundLoop {
	l := roundLoop{pad: rng.Intn(4), cmpFirst: rng.Intn(2) == 0, decoy: rng.Intn(4) == 0, yield: rng.Intn(8) == 0}
	switch rng.Intn(6) {
	case 0, 1:
		l.delta = -1 - 2*int64(rng.Intn(2))
		l.latch = []isa.Op{isa.OpJgt, isa.OpJge}[rng.Intn(2)]
		l.imm = int64(rng.Intn(11)) - 5
	case 2, 3:
		l.delta = []int64{1, 3, 1 << 40}[rng.Intn(3)]
		l.latch = []isa.Op{isa.OpJlt, isa.OpJle}[rng.Intn(2)]
		l.imm = []int64{0, 1 << 50, -7}[rng.Intn(3)]
	case 4:
		l.delta, l.latch, l.imm = 1, isa.OpJgt, math.MinInt64
		if rng.Intn(2) == 0 {
			l.delta, l.latch, l.imm = -1, isa.OpJlt, math.MaxInt64
		}
	default:
		l.delta, l.latch, l.imm = -1, isa.OpJne, 0
	}
	return l
}

// drawThread draws a thread over the scenario's loops: a quarter are
// chasers; the rest start anywhere in a lap, their counters trips laps
// from where their latch falls through (the int64 wrap, for the loops only
// it ends), mostly a few hundred, sometimes 0–2 or thousands.
func (s *roundScenario) drawThread(rng *rand.Rand) roundThread {
	th := roundThread{loop: -1, flags: rng.Intn(3) - 1}
	if rng.Intn(4) == 0 {
		th.r3 = int64(1 + rng.Intn(40))
		return th
	}
	th.loop = rng.Intn(len(s.loops))
	l := s.loops[th.loop]
	th.at = rng.Intn(l.lapLen())
	trips := int64(rng.Intn(300))
	switch rng.Intn(8) {
	case 0:
		trips = int64(rng.Intn(3))
	case 1:
		trips = int64(rng.Intn(5000))
	}
	th.r3 = l.counter(trips)
	return th
}

// counter returns the r3 that leaves l going round trips more times from
// its head: trips laps from its immediate, or from the int64 wrap for the
// loops only it ends.
func (l roundLoop) counter(trips int64) int64 {
	repeats := l.repeats()
	above := repeats == isa.OpJgt || repeats == isa.OpJge // repeats above imm
	switch {
	case repeats == isa.OpJne, (l.delta < 0) == above: // heading for imm
		return l.imm - trips*l.delta
	case l.delta > 0:
		return math.MaxInt64 - trips
	default:
		return math.MinInt64 + trips
	}
}

// drawRoundScenario draws one to three loops, one to six threads and a
// serve-style run of up to a dozen requests over them. Half the scenarios
// get a quantum the first loop's lap cost divides, where one does; one in
// four runs out of fuel early. Bit i of top makes loop i top-tested.
func drawRoundScenario(rng *rand.Rand, top uint8) *roundScenario {
	s := &roundScenario{
		cost:    roundCosts[rng.Intn(len(roundCosts))],
		quantum: roundQuanta[rng.Intn(len(roundQuanta))],
		fuel:    1 << 17,
	}
	if rng.Intn(4) == 0 {
		s.fuel = uint64(100 + rng.Intn(1<<14))
	}
	for n := 1 + rng.Intn(3); len(s.loops) < n; {
		l := drawRoundLoop(rng)
		if top>>len(s.loops)&1 == 1 {
			l = l.topTest()
		}
		s.loops = append(s.loops, l)
	}
	if rng.Intn(2) == 0 {
		var fit []uint64
		for _, q := range roundQuanta {
			if q%s.loops[0].lapCost(s.cost) == 0 {
				fit = append(fit, q)
			}
		}
		if len(fit) > 0 {
			s.quantum = fit[rng.Intn(len(fit))]
		}
	}
	for n := 1 + rng.Intn(6); len(s.threads) < n; {
		s.threads = append(s.threads, s.drawThread(rng))
	}
	s.slots = 1 + rng.Intn(len(s.threads))
	at := uint64(0)
	for n := 1 + rng.Intn(12); len(s.requests) < n; {
		s.requests = append(s.requests, s.drawThread(rng))
		at += uint64(rng.Intn(3000))
		s.arrivals = append(s.arrivals, at)
	}
	return s
}

// check runs s both ways — fixed set and serve-style — on the reference
// core and, unsliced and cut at drawn deadlines, on the core under test,
// and returns what the latter counted: whole[0] over the unsliced runs,
// whole[1] over the cut ones.
func (s *roundScenario) check(t *testing.T, label string, cutSeed int64) (whole [2]exec.RoundStats) {
	t.Helper()
	for _, serve := range []bool{false, true} {
		run := s.runFixed
		if serve {
			run = s.runServe
		}
		ref := run(t, false, nil)
		if ref.rounds.Skips != 0 {
			t.Fatalf("%s: the reference skipped %d times\n%v", label, ref.rounds.Skips, s)
		}
		for cut, cuts := range []*rand.Rand{nil, rand.New(rand.NewSource(cutSeed))} {
			got := run(t, true, cuts)
			if d := got.diff(ref); d != "" {
				t.Fatalf("%s (serve-style %v, cut %v): %s\n%v", label, serve, cuts != nil, d, s)
			}
			addRounds(&whole[cut], got.rounds)
		}
	}
	return whole
}

func addRounds(a *exec.RoundStats, b exec.RoundStats) {
	a.Slices += b.Slices
	a.Skips += b.Skips
	a.Rounds += b.Rounds
	a.SkippedSlices += b.SkippedSlices
}

// TestRoundsMatchPerSliceReference is the random half: hundreds of drawn
// scenarios, every lap cost against every quantum, every start in the
// lap, trip counts from 0 to thousands, the int64 wrap, jne latches and
// CYIELDs that must keep a round from being skipped, chasers stalling,
// threads halting, fuel running out, under both sources, unsliced and
// cut.
func TestRoundsMatchPerSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	n := 250
	if testing.Short() {
		n = 50
	}
	var total [2]exec.RoundStats
	for i := 0; i < n; i++ {
		st := drawRoundScenario(rng, 0).check(t, fmt.Sprintf("scenario %d", i), int64(i))
		addRounds(&total[0], st[0])
		addRounds(&total[1], st[1])
	}
	for cut, st := range total {
		if st.Skips == 0 {
			t.Fatalf("cut %v: no round was ever skipped: the differential ran on single slices alone", cut == 1)
		}
		t.Logf("%d scenarios, cut %v: %d single slices; %d skips retired %d rounds (%d slices)",
			n, cut == 1, st.Slices, st.Skips, st.Rounds, st.SkippedSlices)
	}
}

// TestRoundsLongLoops is the other half: a Compute-shaped loop a million
// laps long beside one a million laps from the int64 wrap, out of phase
// (one at its head, one at its second addi), under quanta the lap cost
// divides once and three times — and one it does not divide. Where it
// divides, the unsliced runs must skip all but a handful of their slices;
// where it does not, nothing may be skipped. In the
// serve-style run the first loop's entry is a slot instead, armed with a
// chaser and then a short loop.
func TestRoundsLongLoops(t *testing.T) {
	for _, quantum := range []uint64{4, 12, 10} {
		s := longLoops(quantum, 1_000_000)
		st := s.check(t, fmt.Sprintf("quantum %d", quantum), int64(quantum))[0]
		switch skipped := float64(st.SkippedSlices) / float64(st.Slices+st.SkippedSlices); {
		case quantum%4 == 0 && skipped < 0.99:
			t.Errorf("quantum %d: %.2f%% of slices skipped, want ≥ 99%%", quantum, 100*skipped)
		case quantum%4 != 0 && st.Skips != 0:
			t.Errorf("quantum %d: %d skips with a lap cost that does not divide the quantum", quantum, st.Skips)
		}
	}
}

// longLoops is TestRoundsLongLoops' scenario, trips laps long; the
// requests arrive a tenth of the way in and twice as far.
func longLoops(quantum uint64, trips int64) *roundScenario {
	return &roundScenario{
		cost:    roundCost(1, 1),
		quantum: quantum,
		fuel:    1 << 30,
		loops: []roundLoop{
			{latch: isa.OpJgt, delta: -1},
			{latch: isa.OpJgt, delta: 1, imm: math.MinInt64, cmpFirst: true},
		},
		threads: []roundThread{
			{loop: 0, r3: trips},
			{loop: 1, at: 2, r3: math.MaxInt64 - trips, flags: 1},
		},
		slots:    1,
		requests: []roundThread{{loop: -1, r3: 20}, {loop: 0, at: 1, r3: 1000}},
		arrivals: []uint64{uint64(trips / 10), uint64(2 * trips)},
	}
}

// TestRoundsObserverTurnsSkipOff: an attached observer must see every
// retire and taken branch at the cycle and in the order the per-slice loop
// produces them, which a skipped round would reorder, so none is skipped.
func TestRoundsObserverTurnsSkipOff(t *testing.T) {
	s := longLoops(4, 5_000)
	s.observe = true
	for cut, st := range s.check(t, "observed", 1) {
		if st.Skips != 0 {
			t.Errorf("cut %v: %d skips with an observer attached", cut == 1, st.Skips)
		}
	}
}

// TestRoundsLastLapBeforeTheWrap: a thread past its lap's decoy compare
// but short of the deciding one, on the lap whose compare lands on the
// int64 wrap. The flags it carries say the latch is taken, and the laps
// after the wrap would take it again, but this lap's does not: the
// latch must be read through the compare still ahead, never the flags.
func TestRoundsLastLapBeforeTheWrap(t *testing.T) {
	loop := roundLoop{latch: isa.OpJgt, delta: 1, imm: math.MinInt64, pad: 1, decoy: true}
	s := &roundScenario{
		cost:     roundCost(1, 1),
		quantum:  loop.lapCost(roundCost(1, 1)) * 2,
		fuel:     1 << 20,
		loops:    []roundLoop{loop},
		threads:  []roundThread{{loop: 0, at: 2, r3: math.MaxInt64, flags: 1}, {loop: 0, r3: math.MaxInt64 - 1000}},
		slots:    1,
		requests: []roundThread{{loop: 0, at: 3, r3: math.MaxInt64, flags: 1}},
		arrivals: []uint64{50},
	}
	if st := s.check(t, "wrap", 1); st[0].Skips == 0 {
		t.Error("nothing skipped: the thread 1 000 laps from the wrap should have been")
	}
}

// TestRoundsSliceCarry pins the slice carry the exec.SMT doc describes. A
// batch loop holds the core alone; an arrival at cycle 13 clips its
// second 8-cycle slice after 5 cycles, and the slot it arms — ahead of the
// batch loop in scan order — inherits the 3 cycles left of that slice, not
// a fresh 8. Its request is 6 cycles of work, so it halts at cycle 27
// (13+3, then the batch loop's 8, then its last 3), not at 19. The batch
// loop, 21 cycles into 4-cycle laps by then, is one instruction into a
// lap: the drift that keeps batch slices off the loop head.
func TestRoundsSliceCarry(t *testing.T) {
	for _, super := range []bool{false, true} {
		s := &roundScenario{
			cost:     roundCost(1, 1),
			quantum:  8,
			fuel:     1 << 20,
			loops:    []roundLoop{{latch: isa.OpJgt, delta: -1, pad: 2}, {latch: isa.OpJgt, delta: -1}},
			threads:  []roundThread{{}, {loop: 1, r3: 1000}},
			slots:    1,
			requests: []roundThread{{loop: 0, at: 2, r3: 1}}, // addi; addi; cmpi; jgt falls through; mov; halt
			arrivals: []uint64{13},
		}
		r := s.runServe(t, super, nil)
		if r.err != "" || !slices.Equal(r.halts, []uint64{27}) {
			t.Fatalf("superblocks %v: request halted at %v (error %q), want [27]: it must inherit the clipped slice's rest", super, r.halts, r.err)
		}
		// The batch loop's head is pc 8, after the request's 8 instructions.
		if batch := r.ctxs[1]; batch.BusyCycles != 21 || batch.PC != 8+1 {
			t.Errorf("superblocks %v: batch loop at pc %d after %d busy cycles, want pc 9 after 21", super, batch.PC, batch.BusyCycles)
		}
	}
}
