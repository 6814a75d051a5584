// Package pebs models sample-based profiling with hardware performance
// counters, after Intel's Precise Event Based Sampling (PEBS) and Last
// Branch Records (LBR).
//
// The sampler observes the simulated core's retire stream. For each
// enabled event it maintains a countdown initialized to the sampling
// period; when an event occurrence crosses the period boundary, one sample
// is recorded into a bounded in-memory buffer. A sample therefore
// represents approximately Period occurrences — exactly the estimate
// real PEBS gives — and everything downstream (internal/profile,
// internal/instrument) consumes these estimates, never the ground-truth
// counters.
//
// The skid model matters for the paper's §3.2 accuracy argument: precise
// sampling attributes a sample to the instruction that caused the event,
// imprecise sampling to the following instruction, which degrades
// profile-to-binary mapping fidelity.
package pebs

import "fmt"

// EventKind enumerates sampleable hardware events.
type EventKind uint8

// The event set from the paper's §3.2: load instructions that miss L2/L3,
// and stalled cycles, plus loads-retired as the denominator for miss
// likelihoods.
const (
	EvLoadRetired    EventKind = iota
	EvLoadL2Miss               // load missed both L1 and L2
	EvLoadL3Miss               // load missed all caches
	EvStallCycle               // one exposed stall cycle
	EvAccWaitRetired           // accelerator wait retired
	EvStoreRetired             // store retired
	EvStoreL2Miss              // store missed both L1 and L2 (RFO miss)
	EvStoreL3Miss              // store missed all caches
	numEvents
)

// NumEvents is the number of defined event kinds.
const NumEvents = int(numEvents)

func (e EventKind) String() string {
	switch e {
	case EvLoadRetired:
		return "loads_retired"
	case EvLoadL2Miss:
		return "load_l2_miss"
	case EvLoadL3Miss:
		return "load_l3_miss"
	case EvStallCycle:
		return "stall_cycles"
	case EvAccWaitRetired:
		return "accwait_retired"
	case EvStoreRetired:
		return "store_retired"
	case EvStoreL2Miss:
		return "store_l2_miss"
	case EvStoreL3Miss:
		return "store_l3_miss"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Config controls the sampler.
type Config struct {
	// Periods holds the sampling period per event; 0 disables the event.
	Periods [NumEvents]uint64
	// BufferSize bounds the number of retained samples; once full, new
	// samples are dropped and counted (real PEBS buffers overflow into an
	// interrupt + drain; we model the loss, the dominant fidelity effect).
	BufferSize int
	// Precise selects PEBS-style precise attribution. When false, samples
	// skid to the following instruction.
	Precise bool

	// LBREvery takes a snapshot of the last-branch ring every N taken
	// branches; 0 disables LBR.
	LBREvery uint64
	// LBRDepth is the ring capacity (32 on contemporary cores).
	LBRDepth int

	// CostPerSample models the (small) per-sample overhead in cycles,
	// reported by OverheadCycles for the E10 trade-off experiment. It
	// does not perturb the simulation.
	CostPerSample uint64
}

// DefaultConfig returns a production-style configuration: sparse sampling
// with precise attribution and a 64Ki-sample buffer.
func DefaultConfig() Config {
	var p [NumEvents]uint64
	p[EvLoadRetired] = 127
	p[EvLoadL2Miss] = 31
	p[EvLoadL3Miss] = 31
	p[EvStallCycle] = 1021
	p[EvAccWaitRetired] = 127
	p[EvStoreRetired] = 127
	p[EvStoreL2Miss] = 31
	p[EvStoreL3Miss] = 31
	return Config{
		Periods:       p,
		BufferSize:    64 << 10,
		Precise:       true,
		LBREvery:      64,
		LBRDepth:      32,
		CostPerSample: 20,
	}
}

// Sample is one recorded event.
type Sample struct {
	Event EventKind
	PC    int
	// Weight is the sampling period at record time: the sample stands for
	// approximately Weight occurrences of the event.
	Weight uint64
	Now    uint64
}

// BranchRecord is one LBR entry: a taken control transfer and the cycle
// count since the previous one (the latency of the block that just ran).
type BranchRecord struct {
	From   int
	To     int
	Cycles uint64
}

// Edge is a CFG edge observed via LBR.
type Edge struct {
	From int
	To   int
}

// LBRStats aggregates LBR snapshots: edge traversal counts and the
// latency of the straight-line region entered at each branch target.
type LBRStats struct {
	Edges map[Edge]uint64
	// BlockCycleSum and BlockCycleCount accumulate, per region-entry PC,
	// the cycles until the next taken branch (sum and count, for
	// averaging). Branch targets are program counters, so the aggregates
	// are dense slices indexed by PC — snapshotting the LBR ring stays
	// allocation-free instead of probing a map per record.
	BlockCycleSum   []uint64
	BlockCycleCount []uint64
}

// NewLBRStats returns empty aggregation state for a program of progLen
// instructions.
func NewLBRStats(progLen int) *LBRStats {
	if progLen < 0 {
		progLen = 0
	}
	return &LBRStats{
		Edges:           make(map[Edge]uint64, 64),
		BlockCycleSum:   make([]uint64, progLen),
		BlockCycleCount: make([]uint64, progLen),
	}
}

// credit counts n traversals of e.
func (l *LBRStats) credit(e Edge, n uint64) { l.Edges[e] += n }

// AvgBlockCycles returns the observed mean latency of the region entered
// at pc, and whether any observation exists.
func (l *LBRStats) AvgBlockCycles(pc int) (float64, bool) {
	if pc < 0 || pc >= len(l.BlockCycleCount) {
		return 0, false
	}
	n := l.BlockCycleCount[pc]
	if n == 0 {
		return 0, false
	}
	return float64(l.BlockCycleSum[pc]) / float64(n), true
}
