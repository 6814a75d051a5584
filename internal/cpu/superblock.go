package cpu

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the superblock (trace) execution tier above the
// basic-block engine. A superblock chains basic blocks across
// predicted-taken branches — derived statically by deriveSuperblocks when
// the core is built — into one pre-decoded trace with a specialized
// retire loop:
//
//   - pure-ALU stretches are compiled to micro-ops with pre-extended
//     immediates, pre-masked shift amounts and pre-masked register
//     indices, so the retire loop runs with no bounds checks and no
//     per-instruction operand decoding; homogeneous `addi r, r, imm`
//     runs get their own switch-free loop;
//   - per-PC Exec counters are batched: the trace counts completed
//     traversals and flushes the per-PC increments once on exit, instead
//     of one read-modify-write per retired instruction;
//   - memory steps call mem.Hierarchy.AccessW, as RunBlock's scalar
//     dispatch does (its MRU-way check keeps a resident hit cheap), and
//     write nothing back: a compiled trace is read-only once NewCore
//     built it;
//   - every branch in the trace is a guarded side exit: the branch
//     executes with full scalar semantics, and if its actual successor
//     differs from the predicted chain the trace exits to RunBlock's
//     generic loop at the real target. Mispredictions cost speed, never
//     correctness;
//   - a conditional yield stays in the trace while it is dormant (the
//     clock below the caller's Horizon.Wake) and is RunBlock's return
//     otherwise, so an instrumented scavenger or batch loop — a CYIELD
//     every few instructions — still runs as one loop superblock;
//   - a counting loop — a loop trace whose lap only increments registers,
//     compares one of them with an immediate, yields conditionally and
//     branches back on the comparison — carries a lap summary (sbLap),
//     and at its head runSuper retires in closed form every lap in which
//     it can prove the interpreter would have changed nothing but
//     counters: the same strength reduction sbALUAddI applies within a
//     lap, applied to whole laps. The laps where anything can happen —
//     the latch falling through, a yield waking, fuel or the busy budget
//     running out — are left to the interpreter below.
//
// The fallback ladder is literal: a superblock step that cannot proceed
// (fuel, busy budget, side exit) drops to RunBlock's block dispatch at an
// exact instruction boundary; with observers attached RunBlock enters no
// trace at all. Every stop condition, fault surface, counter and clock
// movement is byte-identical to RunBlock's scalar dispatch retiring the
// same instructions; internal/cpu/superblock_test.go pins this
// differentially and FuzzSuperblockVsBlock extends it to arbitrary seeds.

// sbSpec describes one trace to compile: the chained program counters
// in predicted execution order. Consecutive entries must be connected —
// pcs[i+1] is pcs[i]+1 for straight-line instructions, and either the
// fall-through or the branch target for branches (the chain direction
// *is* the prediction). loop marks a trace whose final branch is
// predicted to re-enter the trace head (a loop superblock); a non-loop
// trace simply exits after its last instruction.
type sbSpec struct {
	pcs  []int
	loop bool
}

const (
	// sbMaxLen bounds a single trace; longer chains see diminishing
	// returns and cost compile time and memory.
	sbMaxLen = 512
	// sbMinLen is the shortest trace NewCore installs: below it the entry
	// check costs as much as the specialized loop saves.
	sbMinLen = 4
)

// deriveSuperblocks derives the static traces of a program. Trace heads
// are pc 0 and every backward-branch target, visited in ascending pc
// order. From each head the trace follows straight-line flow and the
// static backward-taken/forward-not-taken prediction of each branch
// (unconditional jumps are taken) until it meets an instruction the tier
// cannot trace (superblockTraceable: conditional yields chain;
// primary-phase yields, calls, returns and halts do not), re-enters
// itself (closing a loop trace when it re-enters at the head), or reaches
// sbMaxLen. Traces shorter than minLen are dropped: NewCore passes
// sbMinLen, and the differential tests pass 2, since short traces widen
// their coverage of entry and exit boundaries.
func deriveSuperblocks(instrs []isa.Instr, minLen int) []sbSpec {
	n := len(instrs)
	isHead := make([]bool, n)
	heads := make([]int, 0, 8)
	addHead := func(pc int) {
		if pc < n && !isHead[pc] && superblockTraceable(instrs[pc].Op) {
			isHead[pc] = true
			heads = append(heads, pc)
		}
	}
	addHead(0)
	for pc := range instrs {
		if in := &instrs[pc]; (in.Op == isa.OpJmp || in.Op.IsConditional()) && in.Target() <= pc {
			addHead(in.Target())
		}
	}

	inTrace := make([]bool, n) // per-trace scratch, reset after each walk
	var specs []sbSpec
	for _, head := range heads {
		pcs := make([]int, 0, 16)
		loop := false
		for pc := head; len(pcs) < sbMaxLen; {
			if pc >= n || inTrace[pc] || !superblockTraceable(instrs[pc].Op) {
				break
			}
			inTrace[pc] = true
			pcs = append(pcs, pc)
			in := &instrs[pc]
			next := pc + 1
			if in.Op == isa.OpJmp || in.Op.IsConditional() {
				if in.Op == isa.OpJmp || in.Target() <= pc {
					next = in.Target()
				}
				if next == head {
					loop = true
					break
				}
			}
			pc = next
		}
		for _, p := range pcs {
			inTrace[p] = false
		}
		if len(pcs) >= minLen {
			specs = append(specs, sbSpec{pcs: pcs, loop: loop})
		}
	}
	return specs
}

// Superblock step kinds.
const (
	sbALU     uint8 = iota // fused ALU segment, generic micro-op loop
	sbALUAddI              // homogeneous `addi r, r, imm` segment, pre-aggregated
	sbMem                  // one load or store
	sbBranch               // one branch: guarded side exit
	sbCYield               // one conditional yield: in-trace while dormant
)

// sbAddISelfMin is the shortest homogeneous `addi r, r, imm` run that is
// split out of a generic ALU segment into the switch-free loop.
const sbAddISelfMin = 8

// sbUop is one pre-decoded ALU micro-op. Register indices are
// pre-masked to [0,16) so the retire loop's `&15` proves in-bounds
// indexing to the compiler; immediates are pre-sign-extended, and shift
// immediates pre-masked to [0,64).
type sbUop struct {
	op           uint8
	rd, rs1, rs2 uint8
	imm          uint64
}

// sbStep is one compiled superblock step. The fields form a tagged
// union over kind; nothing writes them after compileSuperblock.
type sbStep struct {
	kind uint8
	op   uint8 // isa.Op: mem (Load/Store) and branch steps
	rd   uint8 // mem: load destination / store source register
	rs1  uint8 // mem: base address register
	pc   int32 // pc of the step's first instruction
	n    int32 // ALU: instruction count
	lo   int32 // ALU: micro-op range start in superblock.uops
	nu   int32 // ALU: micro-op count (< n for aggregated addi segments)

	target   int32 // branch: taken target
	predNext int32 // branch: successor pc on the predicted path (-1: none)
	nextStep int32 // branch: step index on the predicted path (-1: exit)

	cost uint64 // ALU: aggregate busy cost; mem/branch/cyield: base op cost
	imm  uint64 // mem: address displacement (two's complement); cyield: live mask
}

// superblock is one compiled trace.
type superblock struct {
	entry int32
	steps []sbStep
	uops  []sbUop
	lap   sbLap
}

// sbLap summarises one lap of a counting loop: a loop trace whose lap is
// only self-increments (`addi r, r, imm`), nops, `cmpi`s, CYIELDs and a
// closing jgt/jge/jlt/jle back to the head. Every lap of such a loop is
// the same affine step — each register moves by a fixed delta, the clock
// by a fixed cost — and whether the latch is taken is a threshold test on
// one register, so how many laps run before anything else can happen has
// a closed form (ahead). instrs == 0 marks a trace that is not one. The
// summary is held by value and its register deltas live in
// superblock.uops, as sbALUAddI's do: a trace allocates nothing for it.
type sbLap struct {
	cost uint64 // busy cycles per lap
	tail uint64 // busy cycles a lap retires after its last CYIELD

	// The deciding compare is the lap's last `cmpi cmpReg, cmpImm`: it
	// sees cmpOff more than the register held at the head, and cmpAdd is
	// what a whole lap adds to the register (both two's complement).
	cmpOff, cmpAdd uint64
	cmpImm         int64
	// The latch is taken exactly while the compared value lies in
	// [lo, hi], in the order-preserving image of int64 in uint64 (sign
	// bit flipped): a bound that is 0 or MaxUint64 is where the signed
	// value would wrap.
	lo, hi uint64

	instrs uint32 // instructions per lap
	yields uint32 // CYIELDs per lap
	dlo    int32  // register deltas: uops[dlo : dlo+dnu]
	dnu    int32
	cmpReg uint8
}

// SuperblockStats counts what the superblock tier did on the host's
// behalf. The counts are exact and repeat run for run, but they describe
// the simulator, not the simulated machine: nothing architectural reads
// them, and they stay out of Counters, the metrics registry and every
// result.
type SuperblockStats struct {
	// Activations counts trace entries from RunBlock.
	Activations uint64
	// LapsInterpreted counts the trace traversals the step interpreter
	// began; LapsSkipped the counting-loop laps retired in closed form.
	LapsInterpreted uint64
	LapsSkipped     uint64
}

// SuperblockStats returns the tier's host-side counts so far.
func (c *Core) SuperblockStats() SuperblockStats { return c.sbStats }

// installSuperblocks compiles and installs the given traces, enabling
// the superblock tier in RunBlock. Specs are validated defensively —
// connectivity, op admissibility, loop closure — so a buggy deriver
// surfaces as an error from NewCore, never as wrong execution. A later
// spec with the same entry pc replaces the earlier one. Observers
// disable the tier along with the fused segments.
func (c *Core) installSuperblocks(specs []sbSpec) error {
	entry := make([]int32, len(c.instrs))
	for i := range entry {
		entry[i] = -1
	}
	sbs := make([]superblock, 0, len(specs))
	for si := range specs {
		sb, err := c.compileSuperblock(&specs[si])
		if err != nil {
			return err
		}
		if prev := entry[sb.entry]; prev >= 0 {
			sbs[prev] = *sb
			continue
		}
		entry[sb.entry] = int32(len(sbs))
		sbs = append(sbs, *sb)
	}
	c.sbs = sbs
	c.sbEntry = entry
	c.sbQuiet = quietLaps(c.instrs, sbs)
	return nil
}

// ClearSuperblocks removes the core's superblock traces, dropping
// RunBlock back to plain block dispatch (exec.Config.DisableSuperblocks,
// and the block arms of the differential tests).
func (c *Core) ClearSuperblocks() {
	c.sbs = nil
	c.sbEntry = nil
	c.sbQuiet = nil
}

// superblockTraceable reports whether op may appear inside a superblock:
// pure ALU, loads/stores, branches and conditional yields. Calls,
// returns, primary-phase yields, halts, prefetches, SFI checks and
// accelerator ops end trace formation — they carry executor-visible or
// cross-instruction state the specialized loop does not model.
// deriveSuperblocks chains on this predicate; installSuperblocks rejects
// anything else.
func superblockTraceable(op isa.Op) bool {
	return fusableALU(op) || op == isa.OpLoad || op == isa.OpStore ||
		op == isa.OpJmp || op.IsConditional() || op == isa.OpCYield
}

// compileSuperblock validates one spec against the program and compiles
// it into step/micro-op form.
func (c *Core) compileSuperblock(spec *sbSpec) (*superblock, error) {
	pcs := spec.pcs
	if len(pcs) == 0 {
		return nil, fmt.Errorf("cpu: empty superblock spec")
	}
	n := len(c.instrs)
	for i, pc := range pcs {
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("cpu: superblock pc %d out of range", pc)
		}
		in := &c.instrs[pc]
		if !superblockTraceable(in.Op) {
			return nil, fmt.Errorf("cpu: superblock pc %d: %v is not traceable", pc, in.Op)
		}
		branch := in.Op == isa.OpJmp || in.Op.IsConditional()
		next := -1
		if i+1 < len(pcs) {
			next = pcs[i+1]
		} else if spec.loop {
			next = pcs[0]
		}
		if next < 0 {
			continue
		}
		switch {
		case !branch && next != pc+1:
			return nil, fmt.Errorf("cpu: superblock pcs %d -> %d not connected", pc, next)
		case branch && next != pc+1 && next != in.Target():
			return nil, fmt.Errorf("cpu: superblock branch %d -> %d is neither fall-through nor target", pc, next)
		case in.Op == isa.OpJmp && next != in.Target():
			return nil, fmt.Errorf("cpu: superblock jmp %d predicted fall-through", pc)
		}
	}
	if spec.loop {
		lastOp := c.instrs[pcs[len(pcs)-1]].Op
		if lastOp != isa.OpJmp && !lastOp.IsConditional() {
			return nil, fmt.Errorf("cpu: loop superblock must close with a branch, got %v", lastOp)
		}
	}

	sb := &superblock{entry: int32(pcs[0])}
	i := 0
	for i < len(pcs) {
		pc := pcs[i]
		in := &c.instrs[pc]
		switch {
		case fusableALU(in.Op):
			j := i
			for j < len(pcs) && fusableALU(c.instrs[pcs[j]].Op) {
				j++
			}
			c.compileALURun(sb, pcs[i:j])
			i = j
		case in.Op == isa.OpLoad || in.Op == isa.OpStore:
			st := sbStep{
				kind: sbMem,
				op:   uint8(in.Op),
				rs1:  uint8(in.Rs1) & 15,
				pc:   int32(pc),
				cost: c.costs[in.Op],
				imm:  uint64(in.Imm),
			}
			if in.Op == isa.OpLoad {
				st.rd = uint8(in.Rd) & 15
			} else {
				st.rd = uint8(in.Rs2) & 15
			}
			sb.steps = append(sb.steps, st)
			i++
		case in.Op == isa.OpCYield:
			sb.steps = append(sb.steps, sbStep{
				kind: sbCYield,
				pc:   int32(pc),
				cost: c.costs[in.Op],
				imm:  uint64(in.LiveMask()),
			})
			i++
		default: // branch
			st := sbStep{
				kind:     sbBranch,
				op:       uint8(in.Op),
				pc:       int32(pc),
				target:   int32(in.Target()),
				predNext: -1,
				nextStep: -1,
				cost:     c.costs[in.Op],
			}
			if i+1 < len(pcs) {
				st.predNext = int32(pcs[i+1])
				st.nextStep = int32(len(sb.steps)) + 1
			} else if spec.loop {
				st.predNext = int32(pcs[0])
				st.nextStep = 0
			}
			sb.steps = append(sb.steps, st)
			i++
		}
	}
	if spec.loop {
		c.summariseLap(sb, pcs)
	}
	return sb, nil
}

// compileALURun compiles one maximal fusable stretch (consecutive pcs)
// into ALU steps, splitting out homogeneous `addi r, r, imm` runs of at
// least sbAddISelfMin instructions into the switch-free kind.
func (c *Core) compileALURun(sb *superblock, pcs []int) {
	selfLen := make([]int, len(pcs)+1)
	for k := len(pcs) - 1; k >= 0; k-- {
		in := &c.instrs[pcs[k]]
		if in.Op == isa.OpAddI && in.Rd == in.Rs1 {
			selfLen[k] = selfLen[k+1] + 1
		}
	}
	k := 0
	for k < len(pcs) {
		kind := sbALU
		j := k + 1
		if selfLen[k] >= sbAddISelfMin {
			kind = sbALUAddI
			j = k + selfLen[k]
		} else {
			for j < len(pcs) && selfLen[j] < sbAddISelfMin {
				j++
			}
		}
		st := sbStep{kind: kind, pc: int32(pcs[k]), n: int32(j - k), lo: int32(len(sb.uops))}
		if kind == sbALUAddI {
			// Strength-reduce the run to per-register deltas: a segment
			// of `addi r, r, imm` only ever adds immediates into
			// registers, the segment executes all-or-nothing, and nothing
			// inside it observes intermediate values — so its whole
			// architectural effect is at most 16 aggregated additions,
			// independent of run length. uint64 addition commutes modulo
			// 2^64, so wrap-around is bit-identical too.
			var sum [16]uint64
			var touched [16]bool
			var order [16]uint8
			nu := 0
			for _, pc := range pcs[k:j] {
				in := &c.instrs[pc]
				rd := uint8(in.Rd) & 15
				if !touched[rd] {
					touched[rd] = true
					order[nu] = rd
					nu++
				}
				sum[rd] += uint64(in.Imm)
				st.cost += c.costs[in.Op]
			}
			for _, rd := range order[:nu] {
				sb.uops = append(sb.uops, sbUop{op: uint8(isa.OpAddI), rd: rd, rs1: rd, imm: sum[rd]})
			}
			st.nu = int32(nu)
		} else {
			for _, pc := range pcs[k:j] {
				in := &c.instrs[pc]
				imm := uint64(in.Imm)
				if in.Op == isa.OpShlI || in.Op == isa.OpShrI {
					imm &= 63
				}
				sb.uops = append(sb.uops, sbUop{
					op:  uint8(in.Op),
					rd:  uint8(in.Rd) & 15,
					rs1: uint8(in.Rs1) & 15,
					rs2: uint8(in.Rs2) & 15,
					imm: imm,
				})
				st.cost += c.costs[in.Op]
			}
			st.nu = st.n
		}
		sb.steps = append(sb.steps, st)
		k = j
	}
}

// sbSignBit maps int64 order onto uint64 order: x ^ sbSignBit is
// monotonic in int64(x), and since the flip is an addition of 2^63
// modulo 2^64 it commutes with the wrapping adds a lap performs.
const sbSignBit = 1 << 63

// summariseLap fills sb.lap when the validated loop trace over pcs is a
// counting loop, and leaves it zero otherwise. The test is structural
// and total: any load, store, interior branch, jeq/jne/jmp latch,
// register-register compare or ALU op other than a self-increment means
// the lap is not an affine step of the registers alone, and the trace
// simply runs as before.
func (c *Core) summariseLap(sb *superblock, pcs []int) {
	body, latch := pcs[:len(pcs)-1], &c.instrs[pcs[len(pcs)-1]]
	if latch.Target() != pcs[0] {
		return
	}
	lap := sbLap{instrs: uint32(len(pcs)), dlo: int32(len(sb.uops))}
	var delta [16]uint64
	compared := false
	for _, pc := range body {
		in := &c.instrs[pc]
		cost := c.costs[in.Op]
		lap.cost += cost
		lap.tail += cost
		switch {
		case in.Op == isa.OpNop:
		case in.Op == isa.OpAddI && in.Rd == in.Rs1:
			delta[in.Rd&15] += uint64(in.Imm)
		case in.Op == isa.OpCmpI:
			compared = true
			lap.cmpReg = uint8(in.Rs1) & 15
			lap.cmpImm = in.Imm
			lap.cmpOff = delta[in.Rs1&15]
		case in.Op == isa.OpCYield:
			lap.yields++
			lap.tail = 0
		default:
			return
		}
	}
	lap.cost += c.costs[latch.Op]
	lap.tail += c.costs[latch.Op]
	lap.cmpAdd = delta[lap.cmpReg]
	if !compared || lap.cost >= 1<<32 {
		// No compare in the lap leaves the latch to flags from outside it;
		// and a lap that long is a cost table nothing meaningful runs
		// under — refusing it keeps runSuper's 2·cost from wrapping.
		return
	}
	// The interval the latch is taken on. A latch no value can take (jgt
	// against MaxInt64, jlt against MinInt64) has none.
	at := uint64(lap.cmpImm) ^ sbSignBit
	switch {
	case latch.Op == isa.OpJgt && at != ^uint64(0):
		lap.lo, lap.hi = at+1, ^uint64(0)
	case latch.Op == isa.OpJge:
		lap.lo, lap.hi = at, ^uint64(0)
	case latch.Op == isa.OpJlt && at != 0:
		lap.lo, lap.hi = 0, at-1
	case latch.Op == isa.OpJle:
		lap.lo, lap.hi = 0, at
	default:
		return
	}
	for rd, d := range delta {
		if d != 0 {
			sb.uops = append(sb.uops, sbUop{op: uint8(isa.OpAddI), rd: uint8(rd), rs1: uint8(rd), imm: d})
		}
	}
	lap.dnu = int32(len(sb.uops)) - lap.dlo
	sb.lap = lap
}

// ahead returns how many whole laps of the counting loop can be retired
// in closed form from the trace head, with the registers, the clock, the
// fuel left and the busy budget left (MaxUint64: no budget) as they stand
// there. It is the largest k such that k whole laps fit in the fuel, k+1
// fit in the budget and in the cycles below wake, and the latch is taken
// in each of the k (taken):
//
//   - fuel is counted in instructions and checked before each step, so k
//     laps that fit retire exactly as they would one step at a time;
//   - every budget check the interpreter makes inside those k laps asks
//     whether the busy cycles so far, or with the next segment, are still
//     short of the budget, and with a whole lap to spare they are,
//     strictly; a CYIELD in them retires before the k-th lap ends, below
//     wake, so it is dormant, and the budget it re-bases runs to hz.Bound
//     ≥ hz.Wake, beyond the spare lap's end.
//
// Quotients and differences of ordered values only: nothing here wraps.
func (l *sbLap) ahead(regs *[isa.NumRegs]uint64, now, fuelLeft, busyLeft, wake uint64) uint64 {
	spare := busyLeft / l.cost // laps the budget and the cycles below wake cover
	if l.yields > 0 {
		if now >= wake {
			return 0
		}
		spare = min(spare, (wake-now)/l.cost)
	}
	if spare < 2 {
		return 0
	}
	return min(fuelLeft/uint64(l.instrs), spare-1, l.taken(regs[l.cmpReg&15]))
}

// taken returns how many laps in a row, entered at the head with the
// compared register holding r, take the latch: 0 if the first does not,
// MaxUint64 if more than that many do. The compared value moves by cmpAdd
// a lap, so how long it stays in the taken interval [lo, hi] is a
// quotient; the interval ends where the signed value would wrap, so a
// register is never carried across its wrap — that lap, like every other
// doubt, is the interpreter's.
func (l *sbLap) taken(r uint64) uint64 {
	v := (r + l.cmpOff) ^ sbSignBit
	if v < l.lo || v > l.hi {
		return 0
	}
	more := ^uint64(0) // laps after the first that keep the latch taken
	if d := l.cmpAdd; int64(d) > 0 {
		more = (l.hi - v) / d
	} else if d != 0 {
		more = (v - l.lo) / -d
	}
	return min(more, ^uint64(0)-1) + 1
}

// sbQuietPC places a pc inside the lap of a counting loop that never
// yields: sb is the loop's trace (-1: the pc lies in no such lap), pre
// what the lap adds to the compared register ahead of the pc, and
// cmpAhead whether the deciding compare is still to come.
type sbQuietPC struct {
	sb       int32
	cmpAhead bool
	pre      uint64
}

// quietLaps indexes by pc the laps of the counting loops in sbs that
// never yield; nil when there are none, so a program without one pays
// nothing for the index.
func quietLaps(instrs []isa.Instr, sbs []superblock) []sbQuietPC {
	var at []sbQuietPC
	for i := range sbs {
		sb := &sbs[i]
		lap := &sb.lap
		if lap.instrs == 0 || lap.yields > 0 {
			continue
		}
		if at == nil {
			at = make([]sbQuietPC, len(instrs))
			for pc := range at {
				at[pc].sb = -1
			}
		}
		// A summarised lap is straight-line code from the head to the
		// latch: any interior branch would have refused the summary.
		head, end := int(sb.entry), int(sb.entry)+int(lap.instrs)
		lastCmp := head
		for pc := head; pc < end; pc++ {
			if instrs[pc].Op == isa.OpCmpI {
				lastCmp = pc
			}
		}
		var pre uint64
		for pc := head; pc < end; pc++ {
			at[pc] = sbQuietPC{sb: int32(i), cmpAhead: pc <= lastCmp, pre: pre}
			if in := &instrs[pc]; in.Op == isa.OpAddI && uint8(in.Rd)&15 == lap.cmpReg {
				pre += uint64(in.Imm)
			}
		}
	}
	return at
}

// QuietLaps answers the SMT loop's question (internal/smt) about a
// hardware thread: how long does ctx provably stay inside a counting loop
// that never yields? Such a lap touches no memory, cannot stall and reads
// nothing but ctx's own registers and flags, so what it does depends
// neither on the clock nor on any other context. If ctx's next
// instruction lies in one, QuietLaps returns the lap's busy cost and
// instruction count and how many of the latch executions from here on are
// provably taken (MaxUint64: at least that many), from wherever in the
// lap ctx stands. cost 0 means ctx is in no such lap, or RunBlock would
// not run the trace (an observer is attached).
// A pc outside every such lap costs one table lookup; inside, O(1).
//
//shsim:noalloc
func (c *Core) QuietLaps(ctx *coro.Context) (cost, instrs, taken uint64) {
	pc := ctx.PC
	if uint(pc) >= uint(len(c.sbQuiet)) || c.sbQuiet[pc].sb < 0 || len(c.observers) > 0 {
		return 0, 0, 0
	}
	at := &c.sbQuiet[pc]
	sb := &c.sbs[at.sb]
	lap := &sb.lap
	// The compared register as it stood at the head of this lap. The next
	// latch sees it through the lap's compare if that is still to come,
	// and through ctx's flags, already set, if not.
	r := ctx.Regs[lap.cmpReg&15] - at.pre
	switch {
	case at.cmpAhead:
		taken = lap.taken(r)
	case condHolds(c.instrs[int(sb.entry)+int(lap.instrs)-1].Op, ctx.Flags):
		taken = min(lap.taken(r+lap.cmpAdd), ^uint64(0)-1) + 1
	}
	return lap.cost, uint64(lap.instrs), taken
}

// flushSuperExec applies the batched per-PC Exec increments of one
// runSuper activation: every step retired `laps` full traversals, plus
// one more for the first `partial` steps of the unfinished lap. Totals
// (TotalRetired, TotalBusy, clock) are maintained live during the run —
// only the per-PC array writes are batched — so this must run before
// any return to generic dispatch, including faults.
func (c *Core) flushSuperExec(sb *superblock, laps uint64, partial int) {
	exec := c.Counters.Exec
	for k := range sb.steps {
		st := &sb.steps[k]
		add := laps
		if k < partial {
			add++
		}
		if add == 0 {
			return // laps == 0 and k >= partial: nothing later retired either
		}
		if st.kind == sbALU || st.kind == sbALUAddI {
			seg := exec[st.pc : st.pc+st.n]
			for i := range seg {
				seg[i] += add
			}
		} else {
			exec[st.pc] += add
		}
	}
}

// runSuper executes one superblock activation for RunBlock: it enters at
// the trace head and retires steps — looping for loop superblocks —
// until a side exit, fuel or busy-budget expiry, a conditional yield at
// or past hz.Wake, an exposed stall in block mode, or a fault. State is
// exchanged with RunBlock's locals through pointers (the budget too: a
// dormant CYIELD re-bases it); on return pc is always an exact
// instruction boundary. done=true means RunBlock must stop (res is
// filled as the generic loop would have); progressed=false means not a
// single instruction retired, so the caller must fall back to generic
// dispatch to guarantee forward progress.
//
//shsim:noalloc
func (c *Core) runSuper(sb *superblock, ctx *coro.Context, block bool, fuel uint64, hz Horizon, res *BlockResult, pcp *int, stepsp, busyAccp, busyBudgetp *uint64) (done, progressed bool, err error) {
	var (
		regs       = &ctx.Regs
		counters   = c.Counters
		absorb     = c.Cfg.PipelineAbsorb
		steps      = *stepsp
		busyAcc    = *busyAccp
		busyBudget = *busyBudgetp
		start      = steps
		laps       uint64 // traversals completed, skipped ones included
		skipped    uint64
		si         int
		stepsA     = sb.steps
		lap        = &sb.lap
	)
	leave := func(pc, partial int) {
		c.flushSuperExec(sb, laps, partial)
		c.sbStats.Activations++
		c.sbStats.LapsInterpreted += laps - skipped + 1
		c.sbStats.LapsSkipped += skipped
		*pcp = pc
		*stepsp = steps
		*busyAccp = busyAcc
		*busyBudgetp = busyBudget
	}

head:
	// At the head of a counting loop, retire in closed form the laps
	// that would change nothing but counters (see ahead): k times the
	// lap's register deltas, clock, accounting and dormant yields, the
	// flags its last compare would have left, and — a CYIELD having
	// re-based it on the way — the budget as that lap's last one left
	// it. The per-PC Exec counts ride on laps like any other lap's.
	// The test against two laps' cost is all a caller whose budget is
	// shorter pays (an SMT slice).
	if lap.instrs != 0 {
		busyLeft := ^uint64(0)
		if busyBudget != 0 {
			busyLeft = busyBudget - busyAcc
		}
		var k uint64
		if busyLeft >= 2*lap.cost {
			k = lap.ahead(regs, c.Now, fuel-steps, busyLeft, hz.Wake)
		}
		if k > 0 {
			for _, u := range sb.uops[lap.dlo : lap.dlo+lap.dnu] {
				regs[u.rd&15] += k * u.imm
			}
			ctx.Flags = sign(int64(regs[lap.cmpReg&15]-lap.cmpAdd+lap.cmpOff), lap.cmpImm)
			busy, n := k*lap.cost, k*uint64(lap.instrs)
			c.Now += busy
			ctx.BusyCycles += busy
			counters.TotalBusy += busy
			counters.TotalRetired += n
			ctx.Retired += n
			steps += n
			laps += k
			skipped += k
			c.lastBranchAt = c.Now
			if lap.yields > 0 {
				res.Dormant += k * uint64(lap.yields)
				res.DormantAt = c.Now - lap.tail
				busyAcc = lap.tail
				busyBudget = hz.Bound - res.DormantAt
			} else {
				busyAcc += busy
			}
		}
	}
	for {
		st := &stepsA[si]
		switch st.kind {
		case sbALU, sbALUAddI:
			// Mirrors RunBlock's fused segment: all-or-nothing against
			// fuel and the busy budget (strict <, so the budget can never
			// expire mid-segment), bulk accounting afterwards.
			nn := uint64(st.n)
			if nn > fuel-steps || (busyBudget != 0 && busyAcc+st.cost >= busyBudget) {
				leave(int(st.pc), si)
				return false, steps > start, nil
			}
			uops := sb.uops[st.lo : st.lo+st.nu]
			if st.kind == sbALUAddI {
				for j := range uops {
					u := &uops[j]
					regs[u.rd&15] += u.imm
				}
			} else {
				for j := range uops {
					u := &uops[j]
					switch isa.Op(u.op) {
					case isa.OpNop:
					case isa.OpMovI:
						regs[u.rd&15] = u.imm
					case isa.OpMov:
						regs[u.rd&15] = regs[u.rs1&15]
					case isa.OpAdd:
						regs[u.rd&15] = regs[u.rs1&15] + regs[u.rs2&15]
					case isa.OpSub:
						regs[u.rd&15] = regs[u.rs1&15] - regs[u.rs2&15]
					case isa.OpMul:
						regs[u.rd&15] = regs[u.rs1&15] * regs[u.rs2&15]
					case isa.OpDiv:
						if regs[u.rs2&15] == 0 {
							regs[u.rd&15] = 0
						} else {
							regs[u.rd&15] = regs[u.rs1&15] / regs[u.rs2&15]
						}
					case isa.OpAnd:
						regs[u.rd&15] = regs[u.rs1&15] & regs[u.rs2&15]
					case isa.OpOr:
						regs[u.rd&15] = regs[u.rs1&15] | regs[u.rs2&15]
					case isa.OpXor:
						regs[u.rd&15] = regs[u.rs1&15] ^ regs[u.rs2&15]
					case isa.OpShl:
						regs[u.rd&15] = regs[u.rs1&15] << (regs[u.rs2&15] & 63)
					case isa.OpShr:
						regs[u.rd&15] = regs[u.rs1&15] >> (regs[u.rs2&15] & 63)
					case isa.OpAddI:
						regs[u.rd&15] = regs[u.rs1&15] + u.imm
					case isa.OpMulI:
						regs[u.rd&15] = regs[u.rs1&15] * u.imm
					case isa.OpAndI:
						regs[u.rd&15] = regs[u.rs1&15] & u.imm
					case isa.OpShlI:
						regs[u.rd&15] = regs[u.rs1&15] << u.imm
					case isa.OpShrI:
						regs[u.rd&15] = regs[u.rs1&15] >> u.imm
					case isa.OpCmp:
						ctx.Flags = sign(int64(regs[u.rs1&15]), int64(regs[u.rs2&15]))
					case isa.OpCmpI:
						ctx.Flags = sign(int64(regs[u.rs1&15]), int64(u.imm))
					}
				}
			}
			c.Now += st.cost
			ctx.BusyCycles += st.cost
			counters.TotalBusy += st.cost
			counters.TotalRetired += nn
			ctx.Retired += nn
			busyAcc += st.cost
			steps += nn
			si++
			if si == len(stepsA) {
				leave(int(st.pc)+int(st.n), si)
				return false, true, nil
			}

		case sbMem:
			if steps >= fuel {
				leave(int(st.pc), si)
				return false, steps > start, nil
			}
			pc := int(st.pc)
			isStore := isa.Op(st.op) == isa.OpStore
			addr := regs[st.rs1&15] + st.imm
			acc := c.Hier.AccessW(addr, c.Now, isStore)
			busy := st.cost
			var stall uint64
			if acc.Latency > absorb {
				stall = acc.Latency - absorb
				busy += absorb
			} else {
				busy += acc.Latency
			}
			if !isStore {
				v, rerr := c.Mem.Read64(addr)
				if rerr != nil {
					leave(pc, si)
					return false, steps > start, c.fault(ctx.ID, pc, rerr) //shsim:alloc-ok cold fault path; ends the run
				}
				regs[st.rd&15] = v
				counters.Loads[pc]++
			} else {
				if werr := c.Mem.Write64(addr, regs[st.rd&15]); werr != nil {
					leave(pc, si)
					return false, steps > start, c.fault(ctx.ID, pc, werr) //shsim:alloc-ok cold fault path; ends the run
				}
				counters.Stores[pc]++
			}
			if acc.MissedL2 {
				counters.MissL2[pc]++
			}
			if acc.Level == mem.LevelDRAM {
				counters.MissL3[pc]++
			}
			c.Now += busy
			ctx.BusyCycles += busy
			if stall > 0 && !block {
				c.Now += stall
				ctx.StallCycles += stall
				counters.StallCycles[pc] += stall
				counters.TotalStall += stall
			}
			counters.TotalRetired++
			counters.TotalBusy += busy
			ctx.Retired++
			busyAcc += busy
			steps++
			si++
			if block && stall > 0 {
				leave(pc+1, si)
				res.Stall = stall
				return true, true, nil
			}
			if busyBudget != 0 && busyAcc >= busyBudget {
				leave(pc+1, si)
				return true, true, nil
			}
			if si == len(stepsA) {
				leave(pc+1, si)
				return false, true, nil
			}

		case sbCYield:
			if steps >= fuel {
				leave(int(st.pc), si)
				return false, steps > start, nil
			}
			c.Now += st.cost
			ctx.BusyCycles += st.cost
			counters.TotalRetired++
			counters.TotalBusy += st.cost
			ctx.Retired++
			busyAcc += st.cost
			steps++
			si++
			if c.Now >= hz.Wake {
				leave(int(st.pc)+1, si)
				res.CondYield = true
				res.LiveMask = isa.RegMask(st.imm)
				return true, true, nil
			}
			// Dormant: what RunBlock's scalar dispatch does at one.
			res.Dormant++
			res.DormantAt = c.Now
			busyAcc = 0
			busyBudget = hz.Bound - c.Now
			if si == len(stepsA) {
				leave(int(st.pc)+1, si)
				return false, true, nil
			}

		case sbBranch:
			if steps >= fuel {
				leave(int(st.pc), si)
				return false, steps > start, nil
			}
			pc := int(st.pc)
			op := isa.Op(st.op)
			next := pc + 1
			taken := false
			if op == isa.OpJmp || condHolds(op, ctx.Flags) {
				next = int(st.target)
				taken = true
			}
			busy := st.cost
			c.Now += busy
			ctx.BusyCycles += busy
			counters.TotalRetired++
			counters.TotalBusy += busy
			ctx.Retired++
			busyAcc += busy
			steps++
			if taken {
				c.lastBranchAt = c.Now
			}
			predicted := st.nextStep >= 0 && int32(next) == st.predNext
			if predicted {
				if st.nextStep == 0 {
					laps++
					si = 0
				} else {
					si = int(st.nextStep)
				}
			} else {
				si++ // count the branch in the partial lap; exiting below
			}
			if busyBudget != 0 && busyAcc >= busyBudget {
				leave(next, si)
				return true, true, nil
			}
			if !predicted {
				leave(next, si)
				return false, true, nil
			}
			if si == 0 {
				goto head
			}
		}
	}
}
