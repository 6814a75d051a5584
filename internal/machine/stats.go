package machine

import (
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/smt"
)

// CoreStats is one core's view of the run.
type CoreStats struct {
	// Core is the core index; Seed is the strided workload seed the
	// core's scenario was composed with.
	Core int
	Seed int64
	// Exec is filled for ModeSymmetric/ModeSolo, SMT for ModeSMT.
	Exec exec.Stats
	SMT  smt.Stats
	// Mem is the private hierarchy's counter block.
	Mem mem.Stats
	// Metrics is the per-core registry snapshot (zero when RunConfig.
	// Metrics was false).
	Metrics metrics.Snapshot
}

// Cycles returns the core's wall-cycle count under either discipline.
func (cs *CoreStats) Cycles() uint64 {
	if cs.SMT.Cycles > cs.Exec.Cycles {
		return cs.SMT.Cycles
	}
	return cs.Exec.Cycles
}

// Stats aggregates a many-core run: per-core sections in core-index
// order plus machine-level rollups.
type Stats struct {
	// Cores holds the per-core sections, indexed by core id.
	Cores []CoreStats
	// Quanta is the number of cycle quanta (barrier commits) executed.
	Quanta uint64
	// Cycles is the simulated wall time: the maximum core clock advance.
	Cycles uint64
	// LLC is the shared-LLC counter block (zero for 1-core topologies,
	// which run the private three-level hierarchy).
	LLC mem.LLCStats
	// Aggregate sums the per-core work: Busy/Stall/Retired/Switches/
	// Halted are totals, Cycles mirrors the machine-level maximum, and
	// SMT idle time is folded into Stall.
	Aggregate exec.Stats
}

// stats assembles the result after the run completes.
func (m *Machine) stats() Stats {
	st := Stats{Quanta: m.k.Quanta()}
	if m.llc != nil {
		st.LLC = m.llc.Stats
	}
	for _, c := range m.cores {
		cs := CoreStats{Core: c.id, Seed: c.mach.Seed}
		c.ex.CaptureMetrics()
		var latencies []uint64
		if c.tick != nil {
			cs.Exec = c.tick.Stats()
			latencies = cs.Exec.Latencies
		} else {
			cs.SMT = c.smt.Stats()
			latencies = cs.SMT.Latencies
		}
		if reg := c.ex.Cfg.Metrics; reg != nil {
			// What internal/sched records for a classic single-core run,
			// so many-core runs report request latencies too: one request
			// per task, its latency the halt time. Solo runs record none.
			for _, l := range latencies {
				reg.Sched.Requests++
				reg.Sched.RequestLatency.Observe(l)
			}
		}
		cs.Mem = c.ex.Core.Hier.Stats
		if reg := c.reg; reg != nil {
			cs.Metrics = reg.Snapshot()
		}
		st.Cores = append(st.Cores, cs)

		if cy := cs.Cycles(); cy > st.Cycles {
			st.Cycles = cy
		}
		st.Aggregate.Busy += cs.Exec.Busy + cs.SMT.Busy
		st.Aggregate.Stall += cs.Exec.Stall + cs.SMT.Idle
		st.Aggregate.Switch += cs.Exec.Switch
		st.Aggregate.Retired += cs.Exec.Retired + cs.SMT.Retired
		st.Aggregate.Switches += cs.Exec.Switches
		st.Aggregate.Halted += cs.Exec.Halted
	}
	st.Aggregate.Cycles = st.Cycles
	return st
}

// FillMetrics rolls the machine-level accounting into a registry's
// Machine section. A nil registry means observability is off.
func (st *Stats) FillMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	mm := &reg.Machine
	mm.Cores = uint64(len(st.Cores))
	mm.Quanta = st.Quanta
	mm.Cycles = st.Cycles
	mm.LLCHits = st.LLC.Hits
	mm.LLCMisses = st.LLC.Misses
	mm.LLCQueued = st.LLC.Queued
	mm.LLCQueueCycles = st.LLC.QueueCycles
	mm.LLCPeakBank = st.LLC.PeakBankLoad
	mm.Retired = st.Aggregate.Retired
	mm.BusyCycles = st.Aggregate.Busy
	mm.StallCycles = st.Aggregate.Stall
}
