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

	// costs caches Cfg's per-opcode busy cost so RunBlock indexes an
	// array instead of running the cost-model switch on every instruction.
	costs [isa.NumOps]uint64

	// uops is the program decoded once, the form every retire path reads;
	// aluCost[pc] is the busy cost of the fused segment starting at pc
	// (block.go).
	uops    []uop
	aluCost []uint64

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
// ready to retire through every tier: it decodes the program, fused-segment
// bounds included, and installs its static superblock traces.
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
		costs:    cfg.costTable(),
		Counters: NewCounters(len(prog.Instrs)),
	}
	c.uops, c.aluCost = decode(prog.Instrs, &c.costs)
	if err := c.installSuperblocks(deriveSuperblocks(prog.Instrs, sbMinLen)); err != nil {
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

// carriesEvent reports whether retiring op with the given exposed stall
// owes the observers a retire event (see Observer).
func carriesEvent(op isa.Op, stall uint64) bool {
	return stall > 0 || op == isa.OpLoad || op == isa.OpStore || op == isa.OpAccWait
}

// notify hands the observers one retired instruction's events, after its
// clock and counter accounting: the retire event when it carries one, and
// a branch event when it transferred control, before lastBranchAt moves.
// lat and level describe its memory access (zero for instructions
// without one); stall is its exposed stall, reported even in block mode,
// where the clock does not include it. Every tier calls it at the same
// point of the same instruction, so the stream does not depend on which
// tier retired it. Outlined so that unobserved runs pay one branch for it.
//
//shsim:noalloc
func (c *Core) notify(ctxID, pc int, op isa.Op, lat uint64, level mem.Level, stall uint64, taken bool, next int) {
	if carriesEvent(op, stall) {
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
