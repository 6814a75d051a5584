package cpu

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// StepResult reports what one instruction did and cost.
type StepResult struct {
	PC     int
	Op     isa.Op
	Busy   uint64 // busy cycles, including pipeline-absorbed memory latency
	Stall  uint64 // exposed memory stall cycles (already applied per policy)
	MemLat uint64
	Level  mem.Level

	Halted    bool
	Yield     bool // an OpYield retired; the executor decides whether to switch
	CondYield bool // an OpCYield retired
	LiveMask  isa.RegMask

	DidPrefetch  bool
	PrefetchAddr uint64
}

// Core executes instructions for coroutine contexts and owns the global
// clock.
type Core struct {
	Cfg  Config
	Prog *isa.Program
	Mem  *mem.Memory
	Hier *mem.Hierarchy

	Now      uint64
	Counters *Counters

	// instrs aliases Prog.Instrs; fetching through it saves a dependent
	// pointer load per step.
	instrs []isa.Instr

	// costs caches Cfg's per-opcode busy cost so Step indexes an array
	// instead of running the cost-model switch on every instruction.
	costs [isa.NumOps]uint64

	// plan, when installed, enables the basic-block fast path
	// (RunBlock); see block.go. Nil means per-instruction dispatch.
	plan *BlockPlan

	// Superblock tier (superblock.go): sbEntry[pc] indexes sbs when pc
	// heads an installed trace, -1 otherwise; nil disables the tier.
	// sbQuiet indexes the laps of the counting loops that never yield
	// (QuietLaps); nil when there are none. sbLineMask caches the
	// hierarchy's line mask for the residency memos.
	sbs        []superblock
	sbEntry    []int32
	sbQuiet    []sbQuietPC
	sbLineMask uint64
	sbStats    SuperblockStats

	observers    []Observer
	lastBranchAt uint64 // clock of the previous taken transfer (LBR delta base)
}

// NewCore assembles a core over a program, backing memory and hierarchy.
func NewCore(cfg Config, prog *isa.Program, m *mem.Memory, h *mem.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return &Core{
		Cfg:      cfg,
		Prog:     prog,
		Mem:      m,
		Hier:     h,
		instrs:   prog.Instrs,
		costs:    cfg.costTable(),
		Counters: NewCounters(len(prog.Instrs)),
	}, nil
}

// MustNewCore panics on configuration errors.
func MustNewCore(cfg Config, prog *isa.Program, m *mem.Memory, h *mem.Hierarchy) *Core {
	c, err := NewCore(cfg, prog, m, h)
	if err != nil {
		panic(err)
	}
	return c
}

// Observe registers an observer for retire and branch events.
func (c *Core) Observe(o Observer) { c.observers = append(c.observers, o) }

// ClearObservers removes all observers (e.g. after the profiling run).
func (c *Core) ClearObservers() { c.observers = nil }

// Fault is an execution fault (bad PC, memory fault, SFI trap).
type Fault struct {
	Ctx int
	PC  int
	Err error
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cpu: ctx %d at pc %d: %v", f.Ctx, f.PC, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

// fault counts and constructs an execution fault. Outlined so StepInto's
// retire path pays nothing for the accounting.
func (c *Core) fault(ctx, pc int, err error) *Fault {
	c.Counters.Faults++
	return &Fault{ctx, pc, err}
}

func sign(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// StepInto executes the next instruction of ctx, writing what it did and
// cost into the caller-provided result (reused across loop iterations so
// nothing is copied out of the core per retired instruction).
//
// If block is false (coroutine executors), exposed memory stall cycles are
// applied to the clock and attributed to the context immediately — the
// in-order core sits and waits.
//
// If block is true (the SMT executor), the clock advances by busy cycles
// only and the exposed stall is returned in the result for the executor to
// model as a blocked hardware context.
//
// Measured runs normally retire through RunBlock (block.go), which fuses
// straight-line stretches; StepInto remains the semantic reference and
// the only path that delivers per-instruction observer events.
//
//shsim:noalloc
func (c *Core) StepInto(ctx *coro.Context, block bool, res *StepResult) error {
	if ctx.Halted {
		*res = StepResult{}
		return c.fault(ctx.ID, ctx.PC, fmt.Errorf("stepping a halted context")) //shsim:alloc-ok cold fault path; ends the run
	}
	pc := ctx.PC
	if pc < 0 || pc >= len(c.instrs) {
		*res = StepResult{}
		return c.fault(ctx.ID, pc, fmt.Errorf("pc out of range")) //shsim:alloc-ok cold fault path; ends the run
	}
	in := &c.instrs[pc]
	*res = StepResult{PC: pc, Op: in.Op, Busy: c.costs[in.Op]}
	next := pc + 1
	takenBranch := false

	regs := &ctx.Regs
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

	case isa.OpLoad, isa.OpStore:
		addr := regs[in.Rs1] + uint64(in.Imm)
		acc := c.Hier.AccessW(addr, c.Now, in.Op == isa.OpStore)
		applyMem(res, acc, c.Cfg.PipelineAbsorb)
		if in.Op == isa.OpLoad {
			v, err := c.Mem.Read64(addr)
			if err != nil {
				return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
			}
			regs[in.Rd] = v
			c.Counters.Loads[pc]++
		} else {
			if err := c.Mem.Write64(addr, regs[in.Rs2]); err != nil {
				return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
			}
			c.Counters.Stores[pc]++
		}
		if acc.MissedL2 {
			c.Counters.MissL2[pc]++
		}
		if acc.Level == mem.LevelDRAM {
			c.Counters.MissL3[pc]++
		}

	case isa.OpCmp:
		ctx.Flags = sign(int64(regs[in.Rs1]), int64(regs[in.Rs2]))
	case isa.OpCmpI:
		ctx.Flags = sign(int64(regs[in.Rs1]), in.Imm)

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
			return c.fault(ctx.ID, pc, fmt.Errorf("call push: %w", err)) //shsim:alloc-ok cold fault path; ends the run
		}
		applyMem(res, c.Hier.Access(sp, c.Now), c.Cfg.PipelineAbsorb)
		regs[isa.SP] = sp
		next = in.Target()
		takenBranch = true
	case isa.OpRet:
		sp := regs[isa.SP]
		ra, err := c.Mem.Read64(sp)
		if err != nil {
			return c.fault(ctx.ID, pc, fmt.Errorf("ret pop: %w", err)) //shsim:alloc-ok cold fault path; ends the run
		}
		applyMem(res, c.Hier.Access(sp, c.Now), c.Cfg.PipelineAbsorb)
		regs[isa.SP] = sp + 8
		if ra >= uint64(len(c.instrs)) {
			return c.fault(ctx.ID, pc, fmt.Errorf("ret to invalid address %d", ra)) //shsim:alloc-ok cold fault path; ends the run
		}
		next = int(ra)
		takenBranch = true

	case isa.OpPrefetch:
		addr := regs[in.Rs1] + uint64(in.Imm)
		c.Hier.Prefetch(addr, c.Now)
		res.DidPrefetch = true
		res.PrefetchAddr = addr
		ctx.LastPrefetchAddr = addr
		ctx.LastPrefetchValid = true

	case isa.OpYield:
		res.Yield = true
		res.LiveMask = in.LiveMask()
	case isa.OpCYield:
		res.CondYield = true
		res.LiveMask = in.LiveMask()

	case isa.OpCheck:
		if c.Cfg.SandboxHi > c.Cfg.SandboxLo {
			addr := regs[in.Rs1] + uint64(in.Imm)
			if outsideSandbox(addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi) {
				return c.fault(ctx.ID, pc, fmt.Errorf("SFI trap: %#x outside [%#x,%#x)", addr, c.Cfg.SandboxLo, c.Cfg.SandboxHi)) //shsim:alloc-ok cold fault path; ends the run
			}
		}

	case isa.OpAccel:
		addr := regs[in.Rs1] + uint64(in.Imm)
		v, err := isa.AccelChecksum(c.Mem, addr)
		if err != nil {
			return c.fault(ctx.ID, pc, err) //shsim:alloc-ok cold fault path; ends the run
		}
		ctx.AccelResult = v
		ctx.AccelPending = true
		ctx.AccelDone = c.Now + c.Cfg.AccelLatency
	case isa.OpAccWait:
		// Like a DSA completion record, the result is sticky: waiting with
		// nothing outstanding re-reads the last record (initially zero)
		// without stalling.
		if ctx.AccelPending && ctx.AccelDone > c.Now {
			res.Stall += ctx.AccelDone - c.Now
		}
		regs[in.Rd] = ctx.AccelResult
		ctx.AccelPending = false
		c.Counters.AccWaits[pc]++

	case isa.OpHalt:
		res.Halted = true
		ctx.Halted = true
		ctx.Result = regs[1]

	default:
		return c.fault(ctx.ID, pc, fmt.Errorf("unimplemented opcode %v", in.Op)) //shsim:alloc-ok cold fault path; ends the run
	}

	// Clock and accounting.
	c.Now += res.Busy
	ctx.BusyCycles += res.Busy
	if res.Stall > 0 && !block {
		c.Now += res.Stall
		ctx.StallCycles += res.Stall
		c.Counters.StallCycles[pc] += res.Stall
		c.Counters.TotalStall += res.Stall
	}
	c.Counters.Exec[pc]++
	c.Counters.TotalRetired++
	c.Counters.TotalBusy += res.Busy
	ctx.Retired++
	ctx.PC = next

	if len(c.observers) > 0 {
		ev := RetireEvent{
			Ctx:       ctx.ID,
			PC:        pc,
			Op:        byte(in.Op),
			Now:       c.Now,
			IsLoad:    in.Op == isa.OpLoad,
			IsStore:   in.Op == isa.OpStore,
			IsAccWait: in.Op == isa.OpAccWait,
			Level:     res.Level,
			MemLat:    res.MemLat,
			Stall:     res.Stall,
			MissedL2: (in.Op == isa.OpLoad || in.Op == isa.OpStore) &&
				(res.Level == mem.LevelL3 || res.Level == mem.LevelDRAM),
			MissedL3: (in.Op == isa.OpLoad || in.Op == isa.OpStore) &&
				res.Level == mem.LevelDRAM,
		}
		for _, o := range c.observers {
			o.OnRetire(ev)
		}
		if takenBranch {
			bev := BranchEvent{Ctx: ctx.ID, From: pc, To: next, Now: c.Now, Cycles: c.Now - c.lastBranchAt}
			for _, o := range c.observers {
				o.OnBranch(bev)
			}
		}
	}
	if takenBranch {
		c.lastBranchAt = c.Now
	}
	return nil
}

// applyMem folds a memory access into the step's busy/stall split: up to
// `absorb` cycles of latency are pipeline-absorbed (busy), the rest is
// exposed stall.
func applyMem(res *StepResult, acc mem.AccessResult, absorb uint64) {
	res.MemLat = acc.Latency
	res.Level = acc.Level
	if acc.Latency > absorb {
		res.Stall += acc.Latency - absorb
		res.Busy += absorb
	} else {
		res.Busy += acc.Latency
	}
}

func condHolds(op isa.Op, flags int) bool {
	switch op {
	case isa.OpJeq:
		return flags == 0
	case isa.OpJne:
		return flags != 0
	case isa.OpJlt:
		return flags < 0
	case isa.OpJle:
		return flags <= 0
	case isa.OpJgt:
		return flags > 0
	case isa.OpJge:
		return flags >= 0
	}
	return false
}

// AdvanceIdle moves the clock forward by n cycles without attributing work
// (used by executors when every context is blocked).
func (c *Core) AdvanceIdle(n uint64) { c.Now += n }

// ChargeSwitch advances the clock by a context-switch cost and attributes
// it to the context being switched out.
func (c *Core) ChargeSwitch(ctx *coro.Context, cost uint64) {
	c.Now += cost
	ctx.SwitchCycles += cost
	ctx.Switches++
}
