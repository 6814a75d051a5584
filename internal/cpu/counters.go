package cpu

import (
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Counters are the ground-truth per-PC hardware counters. The
// instrumentation pipeline never reads these directly — it consumes PEBS
// estimates — but tests and the E10 experiment compare estimates against
// them.
type Counters struct {
	// Per static instruction, indexed by PC.
	Exec        []uint64 // retire count
	Loads       []uint64 // loads retired
	Stores      []uint64 // stores retired
	MissL2      []uint64 // loads/stores that missed both L1 and L2
	MissL3      []uint64 // loads/stores that missed L1, L2 and L3
	StallCycles []uint64 // exposed memory stall cycles attributed to the PC
	AccWaits    []uint64 // accelerator waits retired

	// Program-wide totals.
	TotalRetired uint64
	TotalBusy    uint64
	TotalStall   uint64
	// Faults counts execution faults raised by RunBlock (bad PC, memory
	// fault, SFI trap, stepping a halted context).
	Faults uint64
}

// NewCounters allocates counters for a program of n instructions.
func NewCounters(n int) *Counters {
	return &Counters{
		Exec:        make([]uint64, n),
		Loads:       make([]uint64, n),
		Stores:      make([]uint64, n),
		MissL2:      make([]uint64, n),
		MissL3:      make([]uint64, n),
		StallCycles: make([]uint64, n),
		AccWaits:    make([]uint64, n),
	}
}

// MissRateL2 returns the ground-truth probability that the load at pc
// misses L2, or 0 if it never executed.
func (c *Counters) MissRateL2(pc int) float64 {
	if c.Loads[pc] == 0 {
		return 0
	}
	return float64(c.MissL2[pc]) / float64(c.Loads[pc])
}

// StallFraction returns stall cycles as a fraction of all cycles.
func (c *Counters) StallFraction() float64 {
	total := c.TotalBusy + c.TotalStall
	if total == 0 {
		return 0
	}
	return float64(c.TotalStall) / float64(total)
}

// FillMetrics harvests the core-wide totals into an observability
// registry section. Per-PC counters stay here; the registry carries
// only the program-wide cycle accounting.
func (c *Counters) FillMetrics(m *metrics.CPU) {
	m.Retired = c.TotalRetired
	m.BusyCycles = c.TotalBusy
	m.StallCycles = c.TotalStall
	m.Faults = c.Faults
}

// RetireEvent describes one retired instruction for observers (the PEBS
// sampler). Fields are populated only as applicable.
type RetireEvent struct {
	Ctx       int // context ID
	PC        int
	Op        byte   // isa.Op, widened to avoid an import cycle in observers that only switch on class
	Now       uint64 // clock after the instruction (and its stall) retired
	IsLoad    bool
	IsStore   bool
	IsAccWait bool
	Level     mem.Level
	MemLat    uint64 // raw memory latency (loads/stores)
	Stall     uint64 // exposed stall cycles
	MissedL2  bool
	MissedL3  bool
}

// BranchEvent describes one taken control transfer for the LBR model.
type BranchEvent struct {
	Ctx    int
	From   int    // PC of the branch
	To     int    // target PC
	Now    uint64 // clock at retire
	Cycles uint64 // cycles since the previous taken transfer on this core
}

// Observer receives retire and branch events. Implementations must be
// cheap; they run inline with simulation.
type Observer interface {
	OnRetire(RetireEvent)
	OnBranch(BranchEvent)
}
