package cpu

import "repro/internal/mem"

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
	Totals
}

// Totals are a core's program-wide counters. The metrics registry's cpu
// section is one Totals, summed over every core it observed.
type Totals struct {
	Retired uint64 // instructions retired
	Busy    uint64 // cycles doing work (incl. pipeline-absorbed latency)
	Stall   uint64 // exposed memory stall cycles
	// Faults counts execution faults raised by RunBlock (bad PC, memory
	// fault, SFI trap, stepping a halted context).
	Faults uint64
}

// Add folds another core's totals into t.
func (t *Totals) Add(o Totals) {
	t.Retired += o.Retired
	t.Busy += o.Busy
	t.Stall += o.Stall
	t.Faults += o.Faults
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
	total := c.Busy + c.Stall
	if total == 0 {
		return 0
	}
	return float64(c.Stall) / float64(total)
}

// RetireEvent describes one retired instruction that carries an event —
// a load, a store, an accelerator wait, or any instruction with an
// exposed stall — for observers (the PEBS sampler). Fields are populated
// only as applicable.
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

// Observer receives events, not instructions. OnRetire fires for every
// retirement that carries one — a load, a store, an accelerator wait, or
// any instruction with an exposed stall, in retire order — and OnBranch
// for every taken control transfer; the other retirements (ALU code,
// not-taken branches, yields, halts) are not reported, which is what lets
// the fused segments and the traces run under an observer. The stream is
// the same on every retire tier and however a run is cut into RunBlock
// calls. Implementations must be cheap; they run inline with simulation.
type Observer interface {
	OnRetire(RetireEvent)
	OnBranch(BranchEvent)
}
