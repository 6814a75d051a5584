package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E17PrefetcherInteraction is the substrate ablation DESIGN.md calls out:
// how does the software mechanism coexist with the hardware stream
// prefetcher? The hardware covers regular (sequential) access patterns
// and nothing else; the software mechanism must pick up exactly the
// irregular remainder — and must not double-instrument what the hardware
// already handles.
func E17PrefetcherInteraction(mach core.Machine) (*Result, error) {
	res := newResult("E17", "hardware stream prefetcher vs software yields (substrate ablation)")
	tbl := stats.NewTable("8-way interleaving, solo-profiled per configuration",
		"workload", "hw_prefetch", "variant", "cycles", "efficiency", "yields")
	res.Tables = append(res.Tables, tbl)

	const n = 8
	kinds := []workloads.Spec{
		workloads.ArrayScan{N: 65536, Instances: n},                   // regular: hardware territory
		workloads.PointerChase{Nodes: 8192, Hops: 1500, Instances: n}, // irregular: software territory
	}
	for _, spec := range kinds {
		// The prefetcher is the hierarchy's, not the image's: one
		// composition per kind serves both settings.
		composed, err := core.NewHarness(mach, spec)
		if err != nil {
			return nil, err
		}
		for _, hw := range []bool{true, false} {
			m := mach
			if !hw {
				m.Mem.HWPrefetchDistance = 0
			}
			h, err := composed.On(m)
			if err != nil {
				return nil, err
			}
			name := spec.Name()
			base, err := h.RunSymmetric(h.Baseline(), name, n, exec.Config{})
			if err != nil {
				return nil, err
			}
			prof, _, err := h.Profile(name)
			if err != nil {
				return nil, err
			}
			img, err := h.Instrument(prof, primaryOnlyOpts(m))
			if err != nil {
				return nil, err
			}
			pg, err := h.RunSymmetric(img, name, n, exec.Config{})
			if err != nil {
				return nil, err
			}
			y, _ := yieldCount(img.Prog)
			hwLabel := "on"
			if !hw {
				hwLabel = "off"
			}
			tbl.Row(name, hwLabel, "baseline", base.Cycles, base.Efficiency(), 0)
			tbl.Row(name, hwLabel, "profile-guided", pg.Cycles, pg.Efficiency(), y)
			key := fmt.Sprintf("%s_hw%v", name, hw)
			res.Metrics[key+"_base_eff"] = base.Efficiency()
			res.Metrics[key+"_pgo_eff"] = pg.Efficiency()
			res.Metrics[key+"_yields"] = float64(y)
		}
	}
	res.Notes = append(res.Notes,
		"scan + HW prefetch: no stalls, and the profile-guided pass correctly inserts nothing",
		"scan without HW prefetch: only 1 access in 8 misses, so the gain/cost model correctly declines too —",
		"  per-access yields cannot express next-line prefetching; the mechanisms are complementary",
		"the chase is indifferent to the hardware prefetcher — dependent random accesses defeat stream detection")
	return res, nil
}
