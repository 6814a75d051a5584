// Package cpu simulates an in-order core executing the virtual ISA with
// cycle-accurate accounting against the mem hierarchy.
//
// The core owns the global clock. Executors (internal/exec's loops)
// drive it one Core.RunBlock call at a time — a straight-line run up to
// the next yield they would act on — and decide what happens at yields;
// the core decides what everything costs. Per-PC hardware counters (ground truth)
// and retire/branch observer hooks (consumed by the PEBS/LBR samplers) are
// both maintained here.
package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Config fixes the instruction cost model and optional SFI sandbox.
type Config struct {
	// Per-class busy costs in cycles.
	CostALU      uint64 // simple ALU, moves, compares
	CostMul      uint64
	CostDiv      uint64
	CostBranch   uint64 // taken or not; the in-order model has no misprediction
	CostLoad     uint64 // issue cost; memory latency is added on top
	CostStore    uint64
	CostPrefetch uint64 // prefetch issue
	CostYield    uint64 // yield instruction retire cost (check only; switch cost is the executor's)
	CostCheck    uint64 // SFI guard
	CostAccel    uint64 // accelerator submission (descriptor write)

	// PipelineAbsorb is the number of memory-latency cycles the in-order
	// pipeline hides for free; latency beyond it counts as stall. It is
	// normally the L1 hit latency, so L1 hits never stall.
	PipelineAbsorb uint64

	// AccelLatency is the onboard accelerator's service time in cycles
	// (450 = 150 ns at 3 GHz, the DSA-class band the paper's §1 names).
	AccelLatency uint64

	// SFI sandbox for OpCheck: accesses must fall in [SandboxLo,
	// SandboxHi). A zero range disables checking (guards retire but never
	// trap).
	SandboxLo uint64
	SandboxHi uint64
}

// DefaultConfig returns the reference core model.
func DefaultConfig() Config {
	return Config{
		CostALU:        1,
		CostMul:        3,
		CostDiv:        20,
		CostBranch:     1,
		CostLoad:       1,
		CostStore:      1,
		CostPrefetch:   1,
		CostYield:      1,
		CostCheck:      1,
		CostAccel:      2,
		PipelineAbsorb: 4,

		AccelLatency: 450,
	}
}

// Validate rejects nonsensical configurations: a zero ALU, branch or
// load cost, any cost or AccelLatency above mem.MaxCycles, an inverted
// sandbox.
func (c Config) Validate() error {
	if c.CostALU == 0 || c.CostBranch == 0 || c.CostLoad == 0 {
		return fmt.Errorf("cpu: instruction costs must be nonzero")
	}
	for _, f := range [...]struct {
		name string
		v    uint64
	}{
		{"CostALU", c.CostALU}, {"CostMul", c.CostMul}, {"CostDiv", c.CostDiv},
		{"CostBranch", c.CostBranch}, {"CostLoad", c.CostLoad}, {"CostStore", c.CostStore},
		{"CostPrefetch", c.CostPrefetch}, {"CostYield", c.CostYield}, {"CostCheck", c.CostCheck},
		{"CostAccel", c.CostAccel}, {"AccelLatency", c.AccelLatency},
	} {
		if err := mem.CheckCycles("cpu", f.name, f.v); err != nil {
			return err
		}
	}
	if c.SandboxHi < c.SandboxLo {
		return fmt.Errorf("cpu: sandbox range inverted")
	}
	return nil
}

// outsideSandbox reports whether the 8-byte access at addr leaves
// [lo, hi). It never forms addr+8, which wraps for addresses in the top 8
// bytes and would wave them through.
func outsideSandbox(addr, lo, hi uint64) bool {
	return addr < lo || addr > hi || hi-addr < 8
}

// BusyCost returns the base cost of an opcode (memory latency excluded).
// The instrumentation pipeline uses it for static latency estimates.
func (c Config) BusyCost(op isa.Op) uint64 { return c.busyCost(op) }

// costTable precomputes busyCost for every opcode. The core indexes it
// per retired instruction instead of re-deriving the class switch.
func (c Config) costTable() [isa.NumOps]uint64 {
	var t [isa.NumOps]uint64
	for op := 0; op < isa.NumOps; op++ {
		t[op] = c.busyCost(isa.Op(op))
	}
	return t
}

// busyCost returns the base cost of an opcode (memory latency excluded).
func (c Config) busyCost(op isa.Op) uint64 {
	switch op {
	case isa.OpMul, isa.OpMulI:
		return c.CostMul
	case isa.OpDiv:
		return c.CostDiv
	case isa.OpLoad:
		return c.CostLoad
	case isa.OpStore:
		return c.CostStore
	case isa.OpPrefetch:
		return c.CostPrefetch
	case isa.OpYield, isa.OpCYield:
		return c.CostYield
	case isa.OpCheck:
		return c.CostCheck
	case isa.OpAccel:
		return c.CostAccel
	case isa.OpNop:
		return 1
	default:
		switch op.Kind() {
		case isa.KindBranch, isa.KindCall, isa.KindRet:
			return c.CostBranch
		case isa.KindHalt:
			return 1
		default:
			return c.CostALU
		}
	}
}
