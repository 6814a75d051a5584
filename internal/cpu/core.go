package cpu

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

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

	// costs caches Cfg's per-opcode busy cost so RunBlock indexes an
	// array instead of running the cost-model switch on every instruction.
	costs [isa.NumOps]uint64

	// plan is the block engine's fused-segment table (block.go).
	plan blockPlan

	// Superblock tier (superblock.go): sbEntry[pc] indexes sbs when pc
	// heads an installed trace, -1 otherwise; nil disables the tier.
	// sbQuiet indexes the laps of the counting loops that never yield
	// (QuietLaps); nil when there are none. Running a trace never
	// writes to sbs.
	sbs     []superblock
	sbEntry []int32
	sbQuiet []sbQuietPC
	sbStats SuperblockStats

	observers    []Observer
	lastBranchAt uint64 // clock of the previous taken transfer (LBR delta base)
}

// NewCore assembles a core over a program, backing memory and hierarchy,
// ready to retire through every tier: it builds the block engine's
// fused-segment table and installs the program's static superblock
// traces.
func NewCore(cfg Config, prog *isa.Program, m *mem.Memory, h *mem.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		Cfg:      cfg,
		Prog:     prog,
		Mem:      m,
		Hier:     h,
		instrs:   prog.Instrs,
		costs:    cfg.costTable(),
		Counters: NewCounters(len(prog.Instrs)),
	}
	c.plan = newBlockPlan(c.instrs, &c.costs)
	if err := c.installSuperblocks(deriveSuperblocks(c.instrs, sbMinLen)); err != nil {
		return nil, err
	}
	return c, nil
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

// notify hands the observers one retired instruction, after its clock and
// counter accounting: the retire event, and a branch event when it
// transferred control. lat and level describe its memory access (zero
// for instructions without one); stall is its exposed stall, reported
// even in block mode, where the clock does not include it. Outlined so
// that unobserved runs pay one branch for it.
//
//shsim:noalloc
func (c *Core) notify(ctxID, pc int, op isa.Op, lat uint64, level mem.Level, stall uint64, taken bool, next int) {
	memOp := op == isa.OpLoad || op == isa.OpStore
	ev := RetireEvent{
		Ctx:       ctxID,
		PC:        pc,
		Op:        byte(op),
		Now:       c.Now,
		IsLoad:    op == isa.OpLoad,
		IsStore:   op == isa.OpStore,
		IsAccWait: op == isa.OpAccWait,
		Level:     level,
		MemLat:    lat,
		Stall:     stall,
		MissedL2:  memOp && (level == mem.LevelL3 || level == mem.LevelDRAM),
		MissedL3:  memOp && level == mem.LevelDRAM,
	}
	for _, o := range c.observers {
		o.OnRetire(ev)
	}
	if taken {
		bev := BranchEvent{Ctx: ctxID, From: pc, To: next, Now: c.Now, Cycles: c.Now - c.lastBranchAt}
		for _, o := range c.observers {
			o.OnBranch(bev)
		}
	}
}

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

// fault counts and constructs an execution fault. Outlined so RunBlock's
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
