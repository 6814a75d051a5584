// Package coro models light-weight coroutine contexts on the simulated
// machine.
//
// A context is the software-visible execution state of one coroutine:
// the register file and program counter. Switching between contexts is a
// first-class simulated cost governed by CostModel — the base cost plus a
// per-register charge for every register preserved across the switch. The
// instrumentation pipeline's register-liveness optimization (paper §3.2)
// reduces the preserved set, which directly reduces the charged cost.
//
// Correctness of that optimization is enforced, not assumed: the
// executor's resume poisons every register outside the live mask (see
// Context.Poison), so a program resumed with an unsound live mask
// computes wrong results and fails the semantics tests.
package coro

import (
	"fmt"

	"repro/internal/isa"
)

// PoisonValue is written to every non-preserved register when a context is
// resumed after a partial (live-mask) switch. The value is chosen to make
// accidental use fail loudly: as an address it faults, as a counter it is
// absurd.
const PoisonValue uint64 = 0xDEAD_BEEF_DEAD_BEEF

// Mode distinguishes the two roles of the paper's asymmetric concurrency.
type Mode uint8

const (
	// Primary coroutines are latency-sensitive: they yield only at
	// primary-phase yields (likely cache misses) and expect control back
	// as soon as the miss is hidden.
	Primary Mode = iota
	// Scavenger coroutines exist to soak up cycles that would otherwise
	// stall: their conditional (scavenger-phase) yields are enabled, and
	// they hand the CPU back once they have run long enough.
	Scavenger
)

func (m Mode) String() string {
	if m == Primary {
		return "primary"
	}
	return "scavenger"
}

// Context is one coroutine's architectural state.
type Context struct {
	ID   int
	Name string
	Mode Mode

	Regs  [isa.NumRegs]uint64
	PC    int
	Flags int // comparison result: <0, 0, >0

	Halted bool
	// Result is R1 at the time HALT retired.
	Result uint64

	// LastPrefetchAddr/LastPrefetchValid record the most recent PREFETCH
	// issued by this context. The §4.1 hardware-assist option consults
	// them at the following YIELD to skip the switch when the line is
	// already cached.
	LastPrefetchAddr  uint64
	LastPrefetchValid bool

	// Accelerator state: at most one outstanding asynchronous operation
	// per coroutine (OpAccel/OpAccWait). The executor treats an
	// incomplete operation like an in-flight prefetch when sizing hide
	// windows.
	AccelPending bool
	AccelDone    uint64 // completion cycle
	AccelResult  uint64

	// Accounting, maintained by the executor.
	BusyCycles   uint64 // cycles spent executing instructions
	StallCycles  uint64 // cycles spent waiting on memory
	SwitchCycles uint64 // cycles charged for context switches out of this context
	Switches     uint64 // number of times this context was switched out
	Retired      uint64 // instructions retired
}

// NewContext returns a fresh context starting at entry with the given
// stack pointer.
func NewContext(id int, entry int, sp uint64) *Context {
	c := &Context{ID: id, PC: entry}
	c.Regs[isa.SP] = sp
	return c
}

// Poison writes PoisonValue into every register outside live, the
// registers a switch preserved. The stack pointer is always preserved
// regardless of the mask, mirroring the ISA calling convention. PC and
// flags are untouched: a switched-out context owns them.
func (c *Context) Poison(live isa.RegMask) {
	live = live.With(isa.SP)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if !live.Has(r) {
			c.Regs[r] = PoisonValue
		}
	}
}

// TotalCycles returns all cycles attributed to this context.
func (c *Context) TotalCycles() uint64 {
	return c.BusyCycles + c.StallCycles + c.SwitchCycles
}

func (c *Context) String() string {
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("ctx%d", c.ID)
	}
	return fmt.Sprintf("%s(%s pc=%d halted=%v)", name, c.Mode, c.PC, c.Halted)
}

// CostModel prices a context switch in cycles.
//
// Defaults follow the paper's numbers: a full 16-register save/restore
// pair lands at 24 cycles = 8 ns at 3 GHz, within the "<10 ns" envelope
// cited for Boost fcontext [6]; OS-thread-style switching is three orders
// of magnitude more expensive (see baselines).
type CostModel struct {
	// Base covers the control transfer itself: swapping PC/SP and the
	// scheduler hand-off.
	Base uint64
	// PerReg is charged for every general-purpose register preserved
	// across the switch (save on the way out plus restore on the way in).
	PerReg uint64
}

// DefaultCostModel returns the reference coroutine cost model: 8 + 16×1 =
// 24 cycles (8 ns) for a full save.
func DefaultCostModel() CostModel { return CostModel{Base: 8, PerReg: 1} }

// Cost returns the cycle cost of a switch that preserves the registers in
// mask. SP is always preserved and always charged.
func (m CostModel) Cost(mask isa.RegMask) uint64 {
	return m.Base + uint64(mask.With(isa.SP).Count())*m.PerReg
}

// FullCost returns the cost of a full-context switch.
func (m CostModel) FullCost() uint64 { return m.Cost(isa.AllRegs) }
