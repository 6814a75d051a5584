package machine

import (
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// CoreStats is one core's view of the run. Observation is
// machine-wide (RunConfig.Exec's one tracer and registry); the per-core
// breakdown lives here.
type CoreStats struct {
	// Core is the core index; Seed is the strided workload seed the
	// core's scenario was composed with.
	Core int
	Seed int64
	// Exec is the core's run statistics under any discipline.
	Exec exec.Stats
	// Mem is the private hierarchy's counter block.
	Mem mem.Stats
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
	// Halted are totals and Cycles mirrors the machine-level maximum.
	Aggregate exec.Stats
}

// stats assembles the result after the run completes and, when the
// run is observed, folds the machine into the shared registry: every
// core's counters, one Sched request per task and the Machine section.
func (m *Machine) stats() Stats {
	st := Stats{Quanta: m.k.Quanta()}
	if m.llc != nil {
		st.LLC = m.llc.Stats
	}
	reg := m.rc.Exec.Metrics
	for _, c := range m.cores {
		cs := CoreStats{Core: c.id, Seed: c.mach.Seed, Exec: c.tick.Stats(), Mem: c.ex.Core.Hier.Stats}
		st.Cores = append(st.Cores, cs)
		if reg != nil && !m.folded {
			// Folded once, however often Run is called. Many-core runs
			// report request latencies: one request per task, its
			// latency the halt time. Solo runs record none.
			c.ex.CaptureMetrics()
			for _, l := range cs.Exec.Latencies {
				reg.Sched.Requests++
				reg.Sched.RequestLatency.Observe(l)
			}
		}

		st.Cycles = max(st.Cycles, cs.Exec.Cycles)
		st.Aggregate.Busy += cs.Exec.Busy
		st.Aggregate.Stall += cs.Exec.Stall
		st.Aggregate.Switch += cs.Exec.Switch
		st.Aggregate.Retired += cs.Exec.Retired
		st.Aggregate.Switches += cs.Exec.Switches
		st.Aggregate.Halted += cs.Exec.Halted
	}
	st.Aggregate.Cycles = st.Cycles
	if reg != nil {
		// The Machine section describes the most recent machine.
		reg.Machine = metrics.Machine{
			Cores:       uint64(len(st.Cores)),
			Quanta:      st.Quanta,
			Cycles:      st.Cycles,
			LLC:         st.LLC,
			Retired:     st.Aggregate.Retired,
			BusyCycles:  st.Aggregate.Busy,
			StallCycles: st.Aggregate.Stall,
		}
	}
	m.folded = true
	return st
}
