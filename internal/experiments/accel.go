package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E16Accelerator reproduces the paper's second motivating event family
// (§1): operations with onboard accelerators (Intel DSA-class engines on
// server parts [26, 32]). The submit/wait pattern leaves a 10s–100s-of-ns
// stall at every wait; the same profile-guided yields that hide cache
// misses hide these too — the profiler attributes the stalls to the
// ACCWAIT site and the instrumenter places a yield there, with the hide
// window sized from the operation's actual residual time.
func E16Accelerator(mach core.Machine) (*Result, error) {
	res := newResult("E16", "hiding onboard-accelerator waits (§1 motivation)")
	tbl := stats.NewTable("accelerator stream, 8-way interleaving",
		"accel_latency_ns", "variant", "cycles", "efficiency", "speedup")
	res.Tables = append(res.Tables, tbl)

	const n = 8
	// The latency is the core's, not the image's: one composition serves
	// every latency.
	composed, err := core.NewHarness(mach, workloads.AccelStream{Blocks: 1500, Pad: 8, Instances: n})
	if err != nil {
		return nil, err
	}
	for _, lat := range []uint64{150, 450, 1500} {
		m := mach
		m.CPU.AccelLatency = lat
		h, err := composed.On(m)
		if err != nil {
			return nil, err
		}
		base, err := h.RunSymmetric(h.Baseline(), "accelstream", n, exec.Config{})
		if err != nil {
			return nil, err
		}
		prof, _, err := h.Profile("accelstream")
		if err != nil {
			return nil, err
		}
		img, err := h.Instrument(prof, m.PipelineOptions())
		if err != nil {
			return nil, err
		}
		pg, err := h.RunSymmetric(img, "accelstream", n, exec.Config{})
		if err != nil {
			return nil, err
		}

		ns := fmt.Sprintf("%.0f", core.NS(float64(lat)))
		tbl.Row(ns, "baseline", base.Cycles, base.Efficiency(), "1.00x")
		tbl.Row(ns, "profile-guided", pg.Cycles, pg.Efficiency(),
			stats.Ratio(float64(base.Cycles), float64(pg.Cycles)))
		key := fmt.Sprintf("lat%d", lat)
		res.Metrics[key+"_base_eff"] = base.Efficiency()
		res.Metrics[key+"_pgo_eff"] = pg.Efficiency()
		res.Metrics[key+"_speedup"] = float64(base.Cycles) / float64(pg.Cycles)
		res.Metrics[key+"_yields"] = float64(img.Pipe.Primary.Yields)
	}
	res.Notes = append(res.Notes,
		"the profiler sees the wait-site stalls via the same sampled events as cache misses",
		"no prefetch is inserted: the accelerator submission is already asynchronous, so a bare yield suffices",
		"speedup grows with the operation latency — more shadow to fill per yield")
	return res, nil
}
