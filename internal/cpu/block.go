package cpu

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the retire engine. The paper's measured runs spend almost
// all retired instructions in straight-line code between yield points —
// that is exactly why profile-guided yield insertion works — so RunBlock
// retires whole straight-line runs in one tight loop: pure-ALU prefixes
// execute fused with their aggregate busy cost precomputed by NewCore,
// memory operations still consult the hierarchy at their exact
// per-instruction cycle (MSHR and fill timing are unchanged), and control
// returns to the executor only at yields it would act on (see Horizon),
// halts, faults, fuel or busy-budget exhaustion, or — in SMT block mode —
// exposed stalls.
//
// RunBlock's scalar dispatch is the simulator's one per-instruction
// interpreter of the timed ISA; the fused segments and the superblock
// traces above it are shortcuts that must be byte-identical to it:
// registers, flags, the clock, every per-PC counter, hierarchy state and
// fault surfaces. internal/cpu/block_test.go pins this differentially
// over random programs, FuzzBlockVsScalar extends it to arbitrary seeds,
// and differential_test.go holds every tier to isa.RefRun. Profiling runs
// must see every retirement, so with observers attached RunBlock takes
// neither shortcut: every instruction retires through the scalar
// dispatch, which hands the observers its events (notify).

// fusableALU reports whether op can run inside a fused segment: it
// writes only registers and flags, costs a statically known number of
// busy cycles, and can neither fault nor stall nor transfer control.
func fusableALU(op isa.Op) bool {
	return op <= isa.OpShrI || op == isa.OpCmp || op == isa.OpCmpI
}

// blockPlan is the block engine's per-PC table, built by NewCore from
// the instructions and the cost table alone: aluEnd[pc] is one past the
// last instruction of the maximal fused pure-ALU segment starting at pc
// (pc itself when instrs[pc] is not fusable), aluCost[pc] the segment's
// aggregate busy cost. Both carry a sentinel entry at len(instrs), so the
// backward scan and the engine never bounds-branch separately.
type blockPlan struct {
	aluEnd  []int32
	aluCost []uint64
}

// newBlockPlan builds the plan for instrs under costs.
func newBlockPlan(instrs []isa.Instr, costs *[isa.NumOps]uint64) blockPlan {
	n := len(instrs)
	p := blockPlan{aluEnd: make([]int32, n+1), aluCost: make([]uint64, n+1)}
	// aluEnd[pc+1] is always >= pc+1 (non-fusable PCs map to themselves,
	// the sentinel maps to n), so a fusable pc simply inherits its
	// successor's segment end and adds its own cost.
	p.aluEnd[n] = int32(n)
	for pc := n - 1; pc >= 0; pc-- {
		if op := instrs[pc].Op; fusableALU(op) {
			p.aluEnd[pc] = p.aluEnd[pc+1]
			p.aluCost[pc] = costs[op] + p.aluCost[pc+1]
		} else {
			p.aluEnd[pc] = int32(pc)
		}
	}
	return p
}

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
	// In coroutine mode stalls are applied to the clock inline.
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
//   - an execution fault (the context's PC left on the faulting
//     instruction, which is not retired);
//   - fuel instructions have retired;
//   - the busy cycles retired reach busyBudget (0 means unbounded), in
//     either mode — a fused ALU segment that would cross the budget
//     retires instruction by instruction, so the stop is exact;
//   - block mode only: an instruction exposes a memory stall.
//
// The budget counts busy cycles only — in coroutine mode stalls move the
// clock past it — and counts from the last dormant CYIELD, where it was
// re-based to hz.Bound − Now.
//
// Branches, calls and returns are followed inline — they do not return
// control to the executor, which only ever needs to act at yields and
// halts. When observers are attached (profiling runs), every instruction
// retires through the scalar dispatch and is reported to them as it
// retires; where the call stops, and everything it changes, is the same
// as without them.
//
//shsim:noalloc
func (c *Core) RunBlock(ctx *coro.Context, block bool, fuel, busyBudget uint64, hz Horizon, res *BlockResult) error {
	*res = BlockResult{}
	if ctx.Halted {
		return c.fault(ctx.ID, ctx.PC, fmt.Errorf("stepping a halted context")) //shsim:alloc-ok cold fault path; ends the run
	}

	var (
		pc       = ctx.PC
		regs     = &ctx.Regs
		instrs   = c.instrs
		counters = c.Counters
		plan     = &c.plan
		absorb   = c.Cfg.PipelineAbsorb
		steps    uint64
		busyAcc  uint64
		sbEntry  = c.sbEntry
		// Observers must see every retirement, so they turn off both
		// shortcuts: fused segments and traces.
		observed = len(c.observers) > 0
		// installSuperblocks builds the entry table even when the deriver
		// found no traces; probing it per PC would then be pure overhead,
		// so the tier arms only when at least one trace exists.
		trySB = !observed && len(c.sbs) > 0
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
		if end := int(plan.aluEnd[pc]); end > pc && !observed {
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

		// Scalar dispatch: one instruction. lat and level describe its
		// memory access, for the observers.
		in := &instrs[pc]
		busy := c.costs[in.Op]
		var stall, lat uint64
		var level mem.Level
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
			lat, level = acc.Latency, acc.Level
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
			lat, level = acc.Latency, acc.Level
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
			lat, level = acc.Latency, acc.Level
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

		// Clock and accounting.
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
		if observed {
			c.notify(ctx.ID, pc, in.Op, lat, level, stall, takenBranch, next)
		}
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
