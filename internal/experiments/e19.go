package experiments

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E19SamplingPrecision isolates why the paper builds on *precise*
// event-based sampling (PEBS [1]) rather than ordinary sampling
// interrupts: imprecise samples skid to the following instruction, so
// miss and stall evidence lands on the wrong PC, the loads never become
// candidates, and the whole pipeline silently degrades to the baseline.
// This is §3.2's accuracy argument at the sampling layer (the companion
// to E13's mapping-level argument).
func E19SamplingPrecision(mach core.Machine) (*Result, error) {
	res := newResult("E19", "precise vs skidded sample attribution (§2/§3.2, PEBS [1])")
	tbl := stats.NewTable("pointer chase, 8-way interleaving",
		"attribution", "profiled_load_sites", "yields", "cycles", "efficiency")
	res.Tables = append(res.Tables, tbl)

	const n = 8
	h, err := core.NewHarness(mach, workloads.PointerChase{Nodes: 8192, Hops: 1500, Instances: n})
	if err != nil {
		return nil, err
	}
	for _, precise := range []bool{true, false} {
		smpCfg := mach.Sampling
		smpCfg.Precise = precise
		prof, _, _, err := h.ProfileParts(smpCfg, "chase")
		if err != nil {
			return nil, err
		}
		img, err := h.Instrument(prof, primaryOnlyOpts(mach))
		if err != nil {
			return nil, err
		}
		st, err := h.RunSymmetric(img, "chase", n, exec.Config{})
		if err != nil {
			return nil, err
		}
		// Count profiled sites that are actually loads.
		loadSites := 0
		for _, s := range prof.Sites {
			if s.PC < len(h.Sc.Prog.Instrs) && h.Sc.Prog.Instrs[s.PC].Op.String() == "load" {
				loadSites++
			}
		}
		y, _ := yieldCount(img.Prog)
		label, key := "precise (PEBS)", "precise"
		if !precise {
			label, key = "skid +1 (ordinary PMU interrupt)", "skid"
		}
		tbl.Row(label, loadSites, y, st.Cycles, st.Efficiency())
		res.Metrics[key+"_eff"] = st.Efficiency()
		res.Metrics[key+"_yields"] = float64(y)
		res.Metrics[key+"_load_sites"] = float64(loadSites)
	}
	res.Notes = append(res.Notes,
		"with skid, miss samples attribute to the instruction after the load — never a candidate site",
		"the paper's footnote 1 makes the same point about imprecise stall events on real CPUs")
	return res, nil
}
