package cpu

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the basic-block fast-path engine. The paper's measured
// runs spend almost all retired instructions in straight-line code
// between yield points — that is exactly why profile-guided yield
// insertion works — so the per-instruction dispatch cost of StepInto
// (call, StepResult reset, observer nil-check) dominates simulator time
// in exactly the runs we care most about. RunBlock retires whole
// straight-line runs in one tight loop: pure-ALU prefixes execute fused
// with their aggregate busy cost precomputed in a BlockPlan, memory
// operations still consult the hierarchy at their exact per-instruction
// cycle (MSHR and fill timing are unchanged), and control returns to the
// executor only at yields it would act on (see Horizon), halts, faults,
// fuel or busy-budget exhaustion, or — in SMT block mode — exposed
// stalls.
//
// The contract with StepInto is byte-identical observable behaviour:
// registers, flags, the clock, every per-PC counter, hierarchy state and
// fault surfaces must not differ. internal/cpu/block_test.go pins this
// differentially over random programs; FuzzBlockVsStep extends it to
// arbitrary seeds. Profiling runs must see every retirement, so RunBlock
// falls back to a StepInto loop whenever observers are attached (or no
// plan is installed) — the PEBS/LBR event stream stays bit-identical.

// BlockRun is one straight-line run [Start, End) of instructions
// containing no control transfer (branch, call, ret), no yield and no
// halt. Runs are typically derived from the binary CFG by
// bincfg.FastPathRuns and installed on a core with InstallPlan.
type BlockRun struct {
	Start, End int
}

// BlockPlan is the per-program fast-path metadata, precomputed once and
// indexed by PC in RunBlock's inner loop. All three tables carry a
// sentinel entry at len(instrs) so the backward construction scan and
// the engine never bounds-branch separately.
type BlockPlan struct {
	// runEnd[pc] is one past the last instruction of the straight-line
	// run containing pc: the position of the next branch/call/ret/
	// yield/halt at or after pc. Stopper PCs map to themselves.
	runEnd []int32
	// aluEnd[pc] is one past the last instruction of the maximal fused
	// prefix starting at pc: consecutive pure-ALU instructions (moves,
	// arithmetic, logic, shifts, compares) that cannot fault, stall,
	// touch memory, or transfer control. Non-fusable PCs map to
	// themselves.
	aluEnd []int32
	// aluCost[pc] is the aggregate busy cost of [pc, aluEnd[pc]).
	aluCost []uint64
}

// RunEnd returns one past the last instruction of the straight-line run
// containing pc (pc itself for branches, calls, rets, yields and halts).
func (p *BlockPlan) RunEnd(pc int) int { return int(p.runEnd[pc]) }

// FusedEnd returns one past the last instruction of the fused pure-ALU
// segment starting at pc (pc itself when instrs[pc] is not fusable).
func (p *BlockPlan) FusedEnd(pc int) int { return int(p.aluEnd[pc]) }

// FusedCost returns the aggregate busy cost of [pc, FusedEnd(pc)).
func (p *BlockPlan) FusedCost(pc int) uint64 { return p.aluCost[pc] }

// fusableALU reports whether op can run inside a fused segment: it
// writes only registers and flags, costs a statically known number of
// busy cycles, and can neither fault nor stall nor transfer control.
func fusableALU(op isa.Op) bool {
	return op <= isa.OpShrI || op == isa.OpCmp || op == isa.OpCmpI
}

// blockStopper reports whether op ends a straight-line run: the
// executor (or the engine's own branch handling) takes over at it.
func blockStopper(op isa.Op) bool {
	return op.IsBranch() || op == isa.OpRet || op == isa.OpHalt || op.IsYield()
}

// InstallPlan precomputes the fast-path metadata over the given
// straight-line runs (typically bincfg.FastPathRuns) and enables the
// block engine on this core. Runs only widen runEnd bookkeeping; the
// fused-segment tables are derived from the instruction stream and the
// core's cost table alone, so a conservative (even empty) run set is
// safe — RunBlock degrades to per-instruction dispatch, never to wrong
// answers.
func (c *Core) InstallPlan(runs []BlockRun) {
	n := len(c.instrs)
	p := &BlockPlan{
		runEnd:  make([]int32, n+1),
		aluEnd:  make([]int32, n+1),
		aluCost: make([]uint64, n+1),
	}
	for i := 0; i <= n; i++ {
		p.runEnd[i] = int32(i)
	}
	for _, r := range runs {
		if r.Start < 0 || r.End > n || r.Start >= r.End {
			continue
		}
		for pc := r.Start; pc < r.End; pc++ {
			p.runEnd[pc] = int32(r.End)
		}
	}
	// Backward scan: aluEnd[pc+1] is always >= pc+1 (non-fusable PCs map
	// to themselves, the sentinel maps to n), so a fusable pc simply
	// inherits its successor's segment end and adds its own cost.
	p.aluEnd[n] = int32(n)
	for pc := n - 1; pc >= 0; pc-- {
		if fusableALU(c.instrs[pc].Op) {
			p.aluEnd[pc] = p.aluEnd[pc+1]
			p.aluCost[pc] = c.costs[c.instrs[pc].Op] + p.aluCost[pc+1]
		} else {
			p.aluEnd[pc] = int32(pc)
		}
	}
	c.plan = p
}

// HasPlan reports whether a block plan is installed.
func (c *Core) HasPlan() bool { return c.plan != nil }

// ClearPlan removes the block plan, forcing RunBlock onto the
// per-instruction StepInto fallback (used by equivalence tests).
func (c *Core) ClearPlan() { c.plan = nil }

// Plan returns the installed block plan, or nil.
func (c *Core) Plan() *BlockPlan { return c.plan }

// Horizon tells RunBlock which conditional yields its caller would act
// on. A scheduling loop that regains control at a CYIELD only to find
// the hide window still open, no arrival due and the deadline ahead
// re-enters with nothing changed but the busy budget, which it re-bases
// against the clock; the horizon lets the retire tier take that trip
// itself. The zero value returns at every CYIELD.
type Horizon struct {
	// Wake is the first cycle at which a CYIELD returns to the caller. One
	// that retires with the clock still below it is dormant: charged and
	// counted like any other, then execution continues.
	Wake uint64
	// Bound is the cycle the busy budget runs to: at a dormant CYIELD the
	// budget becomes Bound − Now and BlockResult.Busy restarts from zero,
	// exactly as if the caller had returned and re-entered there. It must
	// not be below Wake.
	Bound uint64
}

// BlockResult reports why a RunBlock call stopped and what it retired.
type BlockResult struct {
	// Steps is the number of instructions retired by this call.
	Steps uint64
	// Busy is the busy cycles retired against the current budget: the
	// whole call (the SMT executor accounts its quantum from it), or what
	// followed the last dormant CYIELD.
	Busy uint64
	// Dormant counts the CYIELDs retired below the wake horizon;
	// DormantAt is the clock right after the last of them, where the busy
	// budget was re-based.
	Dormant   uint64
	DormantAt uint64
	// Stall is the exposed stall of the final instruction, reported
	// only in block mode (the SMT executor blocks the context on it).
	// In coroutine mode stalls are applied to the clock inline, exactly
	// as StepInto does.
	Stall uint64

	Halted    bool
	Yield     bool // an OpYield retired; the executor decides whether to switch
	CondYield bool // an OpCYield retired
	LiveMask  isa.RegMask
}

// RunBlock retires straight-line instructions for ctx until one of:
//
//   - a YIELD retires, or a CYIELD at or past hz.Wake (reported, with its
//     live mask);
//   - the context halts;
//   - an execution fault (identical surface to StepInto);
//   - fuel instructions have retired;
//   - the busy cycles retired reach busyBudget (0 means unbounded), in
//     either mode — a fused ALU segment that would cross the budget
//     retires instruction by instruction, so the stop is exact;
//   - block mode only: an instruction exposes a memory stall.
//
// The budget counts busy cycles only — in coroutine mode stalls move the
// clock past it — and counts from the last dormant CYIELD, where it was
// re-based to hz.Bound − Now. The horizon only ever saves returns: a
// caller must still accept a CondYield below hz.Wake (the observer path
// reports every one).
//
// Branches, calls and returns are followed inline — they do not return
// control to the executor, which only ever needs to act at yields and
// halts. Semantics, clock movement and counter updates are byte-for-byte
// those of an equivalent StepInto sequence; when observers are attached
// (profiling runs) or no plan is installed, the call literally is a
// StepInto sequence, so the observer event stream is unchanged.
//
//shsim:noalloc
func (c *Core) RunBlock(ctx *coro.Context, block bool, fuel, busyBudget uint64, hz Horizon, res *BlockResult) error {
	*res = BlockResult{}
	if len(c.observers) > 0 || c.plan == nil {
		return c.runBlockSlow(ctx, block, fuel, busyBudget, res)
	}
	if ctx.Halted {
		return c.fault(ctx.ID, ctx.PC, fmt.Errorf("stepping a halted context")) //shsim:alloc-ok cold fault path; ends the run
	}

	var (
		pc       = ctx.PC
		regs     = &ctx.Regs
		instrs   = c.instrs
		counters = c.Counters
		plan     = c.plan
		absorb   = c.Cfg.PipelineAbsorb
		steps    uint64
		busyAcc  uint64
		sbEntry  = c.sbEntry
		// InstallSuperblocks builds the entry table even when the deriver
		// found no traces; probing it per PC would then be pure overhead,
		// so the tier arms only when at least one trace exists.
		trySB = len(c.sbs) > 0
	)
	finish := func() {
		ctx.PC = pc
		res.Steps = steps
		res.Busy = busyAcc
	}

	for steps < fuel {
		if pc < 0 || pc >= len(instrs) {
			finish()
			return c.fault(ctx.ID, pc, fmt.Errorf("pc out of range")) //shsim:alloc-ok cold fault path; ends the run
		}

		// Superblock tier: when pc heads an installed trace, run its
		// specialized retire loop until it exits back to an exact
		// instruction boundary. A trace that cannot retire even one
		// instruction (fuel or budget on the very first step) disables
		// the tier for the rest of this call — fuel and budget only
		// shrink, so retrying it would loop forever.
		if trySB {
			if sbi := sbEntry[pc]; sbi >= 0 {
				done, progressed, err := c.runSuper(&c.sbs[sbi], ctx, block, fuel, hz, res, &pc, &steps, &busyAcc, &busyBudget)
				if err != nil {
					finish()
					return err
				}
				if done {
					finish()
					return nil
				}
				if !progressed {
					trySB = false
				}
				continue
			}
		}

		// Fused pure-ALU segment: registers and flags update in a tight
		// loop, clock and bulk counters are bumped once with the
		// precomputed aggregate cost. Falls through to scalar dispatch
		// when fuel or the SMT busy budget could expire mid-segment.
		if end := int(plan.aluEnd[pc]); end > pc {
			n := uint64(end - pc)
			segCost := plan.aluCost[pc]
			if n <= fuel-steps && (busyBudget == 0 || busyAcc+segCost < busyBudget) {
				for i := pc; i < end; i++ {
					in := &instrs[i]
					switch in.Op {
					case isa.OpNop:
					case isa.OpMovI:
						regs[in.Rd] = uint64(in.Imm)
					case isa.OpMov:
						regs[in.Rd] = regs[in.Rs1]
					case isa.OpAdd:
						regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
					case isa.OpSub:
						regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
					case isa.OpMul:
						regs[in.Rd] = regs[in.Rs1] * regs[in.Rs2]
					case isa.OpDiv:
						if regs[in.Rs2] == 0 {
							regs[in.Rd] = 0
						} else {
							regs[in.Rd] = regs[in.Rs1] / regs[in.Rs2]
						}
					case isa.OpAnd:
						regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
					case isa.OpOr:
						regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
					case isa.OpXor:
						regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
					case isa.OpShl:
						regs[in.Rd] = regs[in.Rs1] << (regs[in.Rs2] & 63)
					case isa.OpShr:
						regs[in.Rd] = regs[in.Rs1] >> (regs[in.Rs2] & 63)
					case isa.OpAddI:
						regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
					case isa.OpMulI:
						regs[in.Rd] = regs[in.Rs1] * uint64(in.Imm)
					case isa.OpAndI:
						regs[in.Rd] = regs[in.Rs1] & uint64(in.Imm)
					case isa.OpShlI:
						regs[in.Rd] = regs[in.Rs1] << (uint64(in.Imm) & 63)
					case isa.OpShrI:
						regs[in.Rd] = regs[in.Rs1] >> (uint64(in.Imm) & 63)
					case isa.OpCmp:
						ctx.Flags = sign(int64(regs[in.Rs1]), int64(regs[in.Rs2]))
					case isa.OpCmpI:
						ctx.Flags = sign(int64(regs[in.Rs1]), in.Imm)
					}
					counters.Exec[i]++
				}
				c.Now += segCost
				ctx.BusyCycles += segCost
				counters.TotalBusy += segCost
				counters.TotalRetired += n
				ctx.Retired += n
				busyAcc += segCost
				steps += n
				pc = end
				continue
			}
		}

		// Scalar dispatch: one instruction, StepInto semantics inlined
		// without the StepResult writes and observer checks.
		in := &instrs[pc]
		busy := c.costs[in.Op]
		var stall uint64
		next := pc + 1
		takenBranch := false
		halted := false
		yield := false
		condYield := false

		switch in.Op {
		case isa.OpNop:
		case isa.OpMovI:
			regs[in.Rd] = uint64(in.Imm)
		case isa.OpMov:
			regs[in.Rd] = regs[in.Rs1]
		case isa.OpAdd:
			regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
		case isa.OpSub:
			regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
		case isa.OpMul:
			regs[in.Rd] = regs[in.Rs1] * regs[in.Rs2]
		case isa.OpDiv:
			if regs[in.Rs2] == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = regs[in.Rs1] / regs[in.Rs2]
			}
		case isa.OpAnd:
			regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
		case isa.OpOr:
			regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
		case isa.OpXor:
			regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
		case isa.OpShl:
			regs[in.Rd] = regs[in.Rs1] << (regs[in.Rs2] & 63)
		case isa.OpShr:
			regs[in.Rd] = regs[in.Rs1] >> (regs[in.Rs2] & 63)
		case isa.OpAddI:
			regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
		case isa.OpMulI:
			regs[in.Rd] = regs[in.Rs1] * uint64(in.Imm)
		case isa.OpAndI:
			regs[in.Rd] = regs[in.Rs1] & uint64(in.Imm)
		case isa.OpShlI:
			regs[in.Rd] = regs[in.Rs1] << (uint64(in.Imm) & 63)
		case isa.OpShrI:
			regs[in.Rd] = regs[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.OpCmp:
			ctx.Flags = sign(int64(regs[in.Rs1]), int64(regs[in.Rs2]))
		case isa.OpCmpI:
			ctx.Flags = sign(int64(regs[in.Rs1]), in.Imm)

		case isa.OpLoad, isa.OpStore:
			addr := regs[in.Rs1] + uint64(in.Imm)
			acc := c.Hier.AccessW(addr, c.Now, in.Op == isa.OpStore)
			if acc.Latency > absorb {
				stall += acc.Latency - absorb
				busy += absorb
			} else {
				busy += acc.Latency
			}
			if in.Op == isa.OpLoad {
				v, err := c.Mem.Read64(addr)
				if err != nil {
					finish()
					return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
				}
				regs[in.Rd] = v
				counters.Loads[pc]++
			} else {
				if err := c.Mem.Write64(addr, regs[in.Rs2]); err != nil {
					finish()
					return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
				}
				counters.Stores[pc]++
			}
			if acc.MissedL2 {
				counters.MissL2[pc]++
			}
			if acc.Level == mem.LevelDRAM {
				counters.MissL3[pc]++
			}

		case isa.OpJmp:
			next = in.Target()
			takenBranch = true
		case isa.OpJeq, isa.OpJne, isa.OpJlt, isa.OpJle, isa.OpJgt, isa.OpJge:
			if condHolds(in.Op, ctx.Flags) {
				next = in.Target()
				takenBranch = true
			}
		case isa.OpCall:
			sp := regs[isa.SP] - 8
			if err := c.Mem.Write64(sp, uint64(pc+1)); err != nil {
				finish()
				return c.fault(ctx.ID, pc, fmt.Errorf("call push: %w", err)) //shsim:alloc-ok cold fault path; ends the run
			}
			acc := c.Hier.Access(sp, c.Now)
			if acc.Latency > absorb {
				stall += acc.Latency - absorb
				busy += absorb
			} else {
				busy += acc.Latency
			}
			regs[isa.SP] = sp
			next = in.Target()
			takenBranch = true
		case isa.OpRet:
			sp := regs[isa.SP]
			ra, err := c.Mem.Read64(sp)
			if err != nil {
				finish()
				return c.fault(ctx.ID, pc, fmt.Errorf("ret pop: %w", err)) //shsim:alloc-ok cold fault path; ends the run
			}
			acc := c.Hier.Access(sp, c.Now)
			if acc.Latency > absorb {
				stall += acc.Latency - absorb
				busy += absorb
			} else {
				busy += acc.Latency
			}
			regs[isa.SP] = sp + 8
			if ra >= uint64(len(instrs)) {
				finish()
				return c.fault(ctx.ID, pc, fmt.Errorf("ret to invalid address %d", ra)) //shsim:alloc-ok cold fault path; ends the run
			}
			next = int(ra)
			takenBranch = true

		case isa.OpPrefetch:
			addr := regs[in.Rs1] + uint64(in.Imm)
			c.Hier.Prefetch(addr, c.Now)
			ctx.LastPrefetchAddr = addr
			ctx.LastPrefetchValid = true

		case isa.OpYield:
			yield = true
		case isa.OpCYield:
			condYield = true

		case isa.OpCheck:
			if c.Cfg.SandboxHi > c.Cfg.SandboxLo {
				addr := regs[in.Rs1] + uint64(in.Imm)
				if outsideSandbox(addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi) {
					finish()
					return c.fault(ctx.ID, pc, fmt.Errorf("SFI trap: %#x outside [%#x,%#x)", addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi)) //shsim:alloc-ok cold fault path; ends the run
				}
			}

		case isa.OpAccel:
			addr := regs[in.Rs1] + uint64(in.Imm)
			v, err := isa.AccelChecksum(c.Mem, addr)
			if err != nil {
				finish()
				return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
			}
			ctx.AccelResult = v
			ctx.AccelPending = true
			ctx.AccelDone = c.Now + c.Cfg.AccelLatency
		case isa.OpAccWait:
			if ctx.AccelPending && ctx.AccelDone > c.Now {
				stall += ctx.AccelDone - c.Now
			}
			regs[in.Rd] = ctx.AccelResult
			ctx.AccelPending = false
			counters.AccWaits[pc]++

		case isa.OpHalt:
			halted = true
			ctx.Halted = true
			ctx.Result = regs[1]

		default:
			finish()
			return c.fault(ctx.ID, pc, fmt.Errorf("unimplemented opcode %v", in.Op)) //shsim:alloc-ok cold fault path; ends the run
		}

		// Clock and accounting, in StepInto's exact order.
		c.Now += busy
		ctx.BusyCycles += busy
		if stall > 0 && !block {
			c.Now += stall
			ctx.StallCycles += stall
			counters.StallCycles[pc] += stall
			counters.TotalStall += stall
		}
		counters.Exec[pc]++
		counters.TotalRetired++
		counters.TotalBusy += busy
		ctx.Retired++
		busyAcc += busy
		steps++
		pc = next
		if takenBranch {
			c.lastBranchAt = c.Now
		}

		if condYield && c.Now < hz.Wake {
			// Dormant: the caller would have looked, found nothing to do
			// and come straight back with a fresh budget.
			res.Dormant++
			res.DormantAt = c.Now
			busyAcc = 0
			busyBudget = hz.Bound - c.Now
			continue
		}
		if halted || yield || condYield {
			finish()
			res.Halted = halted
			res.Yield = yield
			res.CondYield = condYield
			if yield || condYield {
				res.LiveMask = in.LiveMask()
			}
			return nil
		}
		if block && stall > 0 {
			finish()
			res.Stall = stall
			return nil
		}
		if busyBudget != 0 && busyAcc >= busyBudget {
			finish()
			return nil
		}
	}
	finish()
	return nil
}

// runBlockSlow is RunBlock's per-instruction fallback: it drives the
// same stop conditions through StepInto, so attached observers see every
// retirement exactly as the pre-block engine delivered them.
func (c *Core) runBlockSlow(ctx *coro.Context, block bool, fuel, busyBudget uint64, res *BlockResult) error {
	var r StepResult
	for res.Steps < fuel {
		if err := c.StepInto(ctx, block, &r); err != nil {
			return err
		}
		res.Steps++
		res.Busy += r.Busy
		switch {
		case r.Halted:
			res.Halted = true
			return nil
		case r.Yield:
			res.Yield = true
			res.LiveMask = r.LiveMask
			return nil
		case r.CondYield:
			res.CondYield = true
			res.LiveMask = r.LiveMask
			return nil
		}
		if block && r.Stall > 0 {
			res.Stall = r.Stall
			return nil
		}
		if busyBudget != 0 && res.Busy >= busyBudget {
			return nil
		}
	}
	return nil
}
