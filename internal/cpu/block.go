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
// NewCore decodes the program once into one per-PC table (uop), and every
// retire path — the scalar dispatch, the fused segments and the
// superblock traces above them — reads it and shares one implementation
// of each op class: runALU for the ALU ops, memStep for loads and stores.
// The paths differ only in how they batch the clock and the counters, and
// must leave byte-identical results: registers, flags, the clock, every
// per-PC counter, hierarchy state, fault surfaces and the observers'
// event stream. internal/cpu/block_test.go pins this differentially over
// random programs against a test-only core whose every instruction takes
// the scalar dispatch (tierScalar), FuzzBlockVsScalar extends it to
// arbitrary seeds, and differential_test.go holds every tier to the
// independent isa.RefRun. Observers receive events, not instructions
// (notify): a fused ALU segment carries none, and a trace emits its
// memory steps' and taken branches' events inline, so profiling runs
// keep both shortcuts.

// fusableALU reports whether op can run inside a fused segment: it
// writes only registers and flags, costs a statically known number of
// busy cycles, and can neither fault nor stall nor transfer control.
func fusableALU(op isa.Op) bool {
	return op <= isa.OpShrI || op == isa.OpCmp || op == isa.OpCmpI
}

// uop is one decoded instruction. Register indices are masked to [0,16)
// so the `&15` at each use proves in-bounds indexing to the compiler; imm
// is the sign-extended immediate (a branch target, a live mask, an
// address displacement), with shift immediates masked to [0,64). aluEnd,
// in what would otherwise be padding, is one past the last instruction of
// the maximal fused pure-ALU segment starting here (this pc when the
// instruction is not fusable).
type uop struct {
	op           isa.Op
	rd, rs1, rs2 uint8
	aluEnd       int32
	imm          uint64
}

// decode builds a core's decoded table for instrs under costs, and
// beside it aluCost[pc], the aggregate busy cost of the fused segment
// [pc, aluEnd), in one backward scan.
func decode(instrs []isa.Instr, costs *[isa.NumOps]uint64) ([]uop, []uint64) {
	n := len(instrs)
	uops, aluCost := make([]uop, n), make([]uint64, n)
	end, cost := int32(n), uint64(0)
	for pc := n - 1; pc >= 0; pc-- {
		in := &instrs[pc]
		if fusableALU(in.Op) {
			cost += costs[in.Op]
		} else {
			end, cost = int32(pc), 0
		}
		imm := uint64(in.Imm)
		if in.Op == isa.OpShlI || in.Op == isa.OpShrI {
			imm &= 63
		}
		uops[pc] = uop{op: in.Op, rd: uint8(in.Rd) & 15, rs1: uint8(in.Rs1) & 15, rs2: uint8(in.Rs2) & 15, aluEnd: end, imm: imm}
		aluCost[pc] = cost
	}
	return uops, aluCost
}

// runALU executes fusable ALU ops on a register file and flags, and
// touches nothing else: the one implementation of the ALU opcodes. The
// fused segment runs it over [pc, aluEnd), a trace's ALU step over its
// stretch, and the scalar dispatch over one instruction, at the fuel and
// budget edges where a whole segment does not fit.
//
//shsim:noalloc
func runALU(uops []uop, regs *[isa.NumRegs]uint64, flags *int) {
	for i := range uops {
		u := &uops[i]
		switch u.op {
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
			*flags = sign(int64(regs[u.rs1&15]), int64(regs[u.rs2&15]))
		case isa.OpCmpI:
			*flags = sign(int64(regs[u.rs1&15]), int64(u.imm))
		}
	}
}

// charge adds an access's latency to an instruction's busy cycles up to
// what the in-order pipeline absorbs, and returns the rest as its exposed
// stall.
//
//shsim:noalloc inline
func (c *Core) charge(busy uint64, acc mem.AccessResult) (uint64, uint64) {
	if absorb := c.Cfg.PipelineAbsorb; acc.Latency > absorb {
		return busy + absorb, acc.Latency - absorb
	}
	return busy + acc.Latency, 0
}

// memStep runs the load or store u at pc on ctxID's registers: the
// hierarchy access at the current clock, the split of its latency into
// busy cycles and exposed stall, the data move and the per-PC Loads,
// Stores, MissL2 and MissL3 counters — the one implementation of both,
// which the scalar dispatch and a trace's memory step call. The caller
// owns the clock, the stall and the Exec accounting. A memory fault
// leaves the instruction unretired.
//
// An access that has missed L2 before is likely to miss the host's
// caches too, so its host line is prefetched before the simulated walk
// and the two overlap; an L1-resident access skips the hint. Neither
// simulated state nor fault order depends on it.
//
//shsim:noalloc
func (c *Core) memStep(ctxID, pc int, u *uop, regs *[isa.NumRegs]uint64) (busy, stall uint64, acc mem.AccessResult, err error) {
	addr := regs[u.rs1&15] + u.imm
	store := u.op == isa.OpStore
	counters := c.Counters
	if counters.MissL2[pc] != 0 {
		c.Mem.HostPrefetch(addr)
	}
	acc = c.Hier.AccessW(addr, c.Now, store)
	busy, stall = c.charge(c.costs[u.op], acc)
	if store {
		if err = c.Mem.Write64(addr, regs[u.rs2&15]); err != nil {
			return busy, stall, acc, c.fault(ctxID, pc, err) //shsim:alloc-ok cold fault path; ends the run
		}
		counters.Stores[pc]++
	} else {
		var v uint64
		if v, err = c.Mem.Read64(addr); err != nil {
			return busy, stall, acc, c.fault(ctxID, pc, err) //shsim:alloc-ok cold fault path; ends the run
		}
		regs[u.rd&15] = v
		counters.Loads[pc]++
	}
	if acc.MissedL2 {
		counters.MissL2[pc]++
	}
	if acc.Level == mem.LevelDRAM {
		counters.MissL3[pc]++
	}
	return busy, stall, acc, nil
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
// halts. When observers are attached (profiling runs), every retirement
// that carries an event is reported to them as it retires; where the call
// stops, and everything it changes, is the same as without them.
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
		uops     = c.uops
		counters = c.Counters
		steps    uint64
		busyAcc  uint64
		sbEntry  = c.sbEntry
		observed = len(c.observers) > 0
		// installSuperblocks builds the entry table even when the deriver
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
		if pc < 0 || pc >= len(uops) {
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

		// Fused pure-ALU segment: runALU updates registers and flags, and
		// the clock and bulk counters are bumped once with the
		// precomputed aggregate cost. Falls through to scalar dispatch
		// when fuel or the SMT busy budget could expire mid-segment.
		u := &uops[pc]
		if end := int(u.aluEnd); end > pc {
			n := uint64(end - pc)
			segCost := c.aluCost[pc]
			if n <= fuel-steps && (busyBudget == 0 || busyAcc+segCost < busyBudget) {
				runALU(uops[pc:end], regs, &ctx.Flags)
				exec := counters.Exec[pc:end]
				for i := range exec {
					exec[i]++
				}
				c.Now += segCost
				ctx.BusyCycles += segCost
				counters.Busy += segCost
				counters.Retired += n
				ctx.Retired += n
				busyAcc += segCost
				steps += n
				pc = end
				continue
			}
		}

		// Scalar dispatch: one instruction. lat and level describe its
		// memory access, for the observers' retire event.
		op := u.op
		busy := c.costs[op]
		var stall, lat uint64
		var level mem.Level
		next := pc + 1
		takenBranch := false
		halted := false
		yield := false
		condYield := false

		switch op {
		case isa.OpLoad, isa.OpStore:
			var acc mem.AccessResult
			var err error
			if busy, stall, acc, err = c.memStep(ctx.ID, pc, u, regs); err != nil {
				finish()
				return err
			}
			lat, level = acc.Latency, acc.Level

		case isa.OpJmp:
			next = int(u.imm)
			takenBranch = true
		case isa.OpJeq, isa.OpJne, isa.OpJlt, isa.OpJle, isa.OpJgt, isa.OpJge:
			if condHolds(op, ctx.Flags) {
				next = int(u.imm)
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
			busy, stall = c.charge(busy, acc)
			regs[isa.SP] = sp
			next = int(u.imm)
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
			busy, stall = c.charge(busy, acc)
			regs[isa.SP] = sp + 8
			if ra >= uint64(len(uops)) {
				finish()
				return c.fault(ctx.ID, pc, fmt.Errorf("ret to invalid address %d", ra)) //shsim:alloc-ok cold fault path; ends the run
			}
			next = int(ra)
			takenBranch = true

		case isa.OpPrefetch:
			addr := regs[u.rs1&15] + u.imm
			c.Mem.HostPrefetch(addr)
			c.Hier.Prefetch(addr, c.Now)
			ctx.LastPrefetchAddr = addr
			ctx.LastPrefetchValid = true

		case isa.OpYield:
			yield = true
		case isa.OpCYield:
			condYield = true

		case isa.OpCheck:
			if c.Cfg.SandboxHi > c.Cfg.SandboxLo {
				addr := regs[u.rs1&15] + u.imm
				if outsideSandbox(addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi) {
					finish()
					return c.fault(ctx.ID, pc, fmt.Errorf("SFI trap: %#x outside [%#x,%#x)", addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi)) //shsim:alloc-ok cold fault path; ends the run
				}
			}

		case isa.OpAccel:
			addr := regs[u.rs1&15] + u.imm
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
			regs[u.rd&15] = ctx.AccelResult
			ctx.AccelPending = false
			counters.AccWaits[pc]++

		case isa.OpHalt:
			halted = true
			ctx.Halted = true
			ctx.Result = regs[1]

		default:
			// The fusable ALU ops, the only ones left in a validated
			// program: here only where fuel or the budget cut a segment.
			runALU(uops[pc:pc+1], regs, &ctx.Flags)
		}

		// Clock and accounting.
		c.Now += busy
		ctx.BusyCycles += busy
		if stall > 0 && !block {
			c.Now += stall
			ctx.StallCycles += stall
			counters.StallCycles[pc] += stall
			counters.Stall += stall
		}
		counters.Exec[pc]++
		counters.Retired++
		counters.Busy += busy
		ctx.Retired++
		busyAcc += busy
		steps++
		if observed && (takenBranch || carriesEvent(op, stall)) {
			c.notify(ctx.ID, pc, op, lat, level, stall, takenBranch, next)
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
				res.LiveMask = isa.RegMask(u.imm)
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
