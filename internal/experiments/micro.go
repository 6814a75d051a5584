package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E1SwitchCost reproduces the paper's §2 cost comparison: coroutine
// switches land under 10 ns (9 ns for Boost fcontext [6]) while
// process/kernel-thread switches take hundreds of ns to µs [14, 38], and
// liveness-optimized saves go below the full-save cost.
func E1SwitchCost(mach core.Machine) (*Result, error) {
	res := newResult("E1", "context-switch cost: coroutines vs threads (§2)")
	tbl := stats.NewTable("switch cost", "mechanism", "cycles", "ns")
	res.Tables = append(res.Tables, tbl)

	full := mach.Switch.FullCost()
	tbl.Row("coroutine (full save)", full, core.NS(float64(full)))
	res.Metrics["coro_full_ns"] = core.NS(float64(full))

	// Measured liveness-optimized switches: instrument the chase and
	// observe the actual per-switch charge in a symmetric run.
	h, err := core.NewHarness(mach, workloads.PointerChase{Nodes: 4096, Hops: 1500, Instances: 4})
	if err != nil {
		return nil, err
	}
	prof, _, err := h.Profile("chase")
	if err != nil {
		return nil, err
	}
	img, err := h.Instrument(prof, mach.PipelineOptions())
	if err != nil {
		return nil, err
	}
	st, err := h.RunSymmetric(img, "chase", 4, exec.Config{})
	if err != nil {
		return nil, err
	}
	if st.Switches == 0 {
		return nil, fmt.Errorf("E1: no switches measured")
	}
	avg := float64(st.Switch) / float64(st.Switches)
	tbl.Row("coroutine (live-mask save, measured)", fmt.Sprintf("%.1f", avg), core.NS(avg))
	res.Metrics["coro_live_ns"] = core.NS(avg)

	osCost := baselines.OSThreadCostModel().FullCost()
	tbl.Row("kernel thread / process", osCost, core.NS(float64(osCost)))
	res.Metrics["thread_ns"] = core.NS(float64(osCost))
	res.Metrics["ratio_thread_over_coro"] = float64(osCost) / float64(full)

	res.Notes = append(res.Notes,
		"paper: coroutine switches ~9 ns [6], thread switches 100s of ns to a few µs [14,38]")
	return res, nil
}

// E2StallFraction reproduces the §1 claim that memory-bound applications
// lose more than 60% of processor cycles to stalls [3, 13, 31, 62]: solo,
// uninstrumented runs of each workload on the reference machine.
func E2StallFraction(mach core.Machine) (*Result, error) {
	res := newResult("E2", "memory-bound CPU stall fractions (§1)")
	tbl := stats.NewTable("stall fraction, solo uninstrumented run",
		"workload", "cycles", "stall_frac", "ipc", "memory_bound")
	res.Tables = append(res.Tables, tbl)

	specs := []workloads.Spec{
		workloads.PointerChase{Nodes: 8192, Hops: 3000, Instances: 1},
		workloads.HashJoin{BuildRows: 8192, Buckets: 4096, Probes: 600, MatchFraction: 0.7, Instances: 1},
		workloads.BST{Keys: 8192, Lookups: 400, Instances: 1},
		workloads.BTree{Keys: 8192, Lookups: 400, Instances: 1},
		workloads.SkipList{Keys: 8192, Lookups: 300, Instances: 1},
		workloads.Scatter{Slots: 8192, Updates: 3000, Instances: 1},
		workloads.BinarySearch{N: 65536, Lookups: 400, Instances: 1},
		workloads.ArrayScan{N: 65536, Instances: 1},
	}
	for _, spec := range specs {
		h, err := core.NewHarness(mach, spec)
		if err != nil {
			return nil, err
		}
		st, err := h.RunSolo(h.Baseline(), spec.Name(), exec.Config{})
		if err != nil {
			return nil, err
		}
		frac := st.StallFraction()
		bound := "no"
		if frac > 0.6 {
			bound = "yes (>60%)"
		}
		tbl.Row(spec.Name(), st.Cycles, frac, st.IPC(), bound)
		res.Metrics[spec.Name()+"_stall_frac"] = frac
	}
	res.Notes = append(res.Notes,
		"paper §1: widely-used applications lose >60% of cycles to memory-bound stalls [3,13,31,62]",
		"array scan is the cache-friendly foil: sequential lines hit after first touch")
	return res, nil
}

// primaryOnlyOpts disables the scavenger phase (throughput-only runs).
func primaryOnlyOpts(mach core.Machine) instrument.PipelineOptions {
	opts := mach.PipelineOptions()
	opts.Scavenger = nil
	return opts
}

// yieldCount counts yields by kind in a program.
func yieldCount(prog *isa.Program) (yields, condYields int) {
	for _, in := range prog.Instrs {
		switch in.Op {
		case isa.OpYield:
			yields++
		case isa.OpCYield:
			condYields++
		}
	}
	return
}
