package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E10SamplingPeriod reproduces the §2/§3.2 sampling trade-off: denser
// sampling converges faster to the ground-truth miss rates at higher
// (modelled) overhead; sparse sampling is nearly free but noisy. This is
// the knob production PGO pipelines tune [1, 47, 50].
func E10SamplingPeriod(mach core.Machine) (*Result, error) {
	res := newResult("E10", "sampling-period trade-off: profile fidelity vs overhead (§3.2)")
	tbl := stats.NewTable("pointer-chase + binary-search profiling run",
		"period_scale", "samples", "dropped", "overhead_frac", "missrate_mae", "stall_err")
	res.Tables = append(res.Tables, tbl)

	h, err := core.NewHarness(mach,
		workloads.PointerChase{Nodes: 8192, Hops: 3000, Instances: 1},
		workloads.BinarySearch{N: 65536, Lookups: 300, Instances: 1},
	)
	if err != nil {
		return nil, err
	}

	for _, scale := range []uint64{1, 4, 16, 64, 256} {
		smpCfg := mach.Sampling
		for e := range smpCfg.Periods {
			if smpCfg.Periods[e] > 0 {
				p := smpCfg.Periods[e] * scale / 4
				if p == 0 {
					p = 1
				}
				smpCfg.Periods[e] = p
			}
		}
		prof, sampler, cpuCore, err := h.ProfileParts(smpCfg, "chase", "binsearch")
		if err != nil {
			return nil, err
		}

		// Fidelity: mean absolute error of per-site miss-rate estimates
		// against the ground-truth hardware counters, over loads that
		// executed at least 100 times.
		var mae float64
		var sites int
		for pc := range h.Sc.Prog.Instrs {
			if cpuCore.Counters.Loads[pc] < 100 {
				continue
			}
			truth := cpuCore.Counters.MissRateL2(pc)
			est := 0.0
			if s := prof.Site(pc); s != nil {
				est = s.MissRate()
			}
			mae += math.Abs(est - truth)
			sites++
		}
		if sites > 0 {
			mae /= float64(sites)
		}
		stallErr := 0.0
		if cpuCore.Counters.Stall > 0 {
			stallErr = math.Abs(prof.TotalStallCycles-float64(cpuCore.Counters.Stall)) /
				float64(cpuCore.Counters.Stall)
		}
		overheadFrac := float64(sampler.OverheadCycles()) / float64(cpuCore.Now)

		label := fmt.Sprintf("%.2fx", float64(scale)/4)
		tbl.Row(label, len(sampler.Samples), sampler.Dropped, overheadFrac, mae, stallErr)
		res.Metrics[fmt.Sprintf("scale_%d_mae", scale)] = mae
		res.Metrics[fmt.Sprintf("scale_%d_overhead", scale)] = overheadFrac
		res.Metrics[fmt.Sprintf("scale_%d_samples", scale)] = float64(len(sampler.Samples))
	}
	res.Notes = append(res.Notes,
		"period_scale 1x = the machine's default periods; larger = sparser sampling",
		"fidelity is measured against ground-truth counters the pipeline itself never sees")
	return res, nil
}
