package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E3SMTvsCoro reproduces the §1 argument that SMT's 2–8 hardware contexts
// are insufficient to hide memory latency [28, 31, 53], while software
// coroutines scale concurrency to whatever the latency/compute ratio
// demands.
func E3SMTvsCoro(mach core.Machine) (*Result, error) {
	res := newResult("E3", "SMT contexts vs software coroutines on DRAM-bound pointer chasing (§1)")
	tbl := stats.NewTable("CPU efficiency by concurrency degree",
		"mechanism", "degree", "efficiency", "ipc")
	res.Tables = append(res.Tables, tbl)

	const maxN = 32
	spec := workloads.PointerChase{Nodes: 8192, Hops: 1200, Instances: maxN}
	h, err := core.NewHarness(mach, spec)
	if err != nil {
		return nil, err
	}
	base := h.Baseline()

	for _, k := range []int{1, 2, 4, 8} {
		st, err := h.RunSMT(base, "chase", k, exec.Config{MaxSteps: 1 << 28})
		if err != nil {
			return nil, err
		}
		tbl.Row("SMT", k, st.Efficiency(), float64(st.Retired)/float64(st.Cycles))
		res.Metrics[fmt.Sprintf("smt%d", k)] = st.Efficiency()
	}

	prof, _, err := h.Profile("chase")
	if err != nil {
		return nil, err
	}
	img, err := h.Instrument(prof, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		st, err := h.RunSymmetric(img, "chase", n, exec.Config{})
		if err != nil {
			return nil, err
		}
		tbl.Row("coroutines", n, st.Efficiency(), st.IPC())
		res.Metrics[fmt.Sprintf("coro%d", n)] = st.Efficiency()
	}
	res.Notes = append(res.Notes,
		"hardware caps SMT at 2–8 contexts; the chase needs latency/compute ≈ 30 concurrent streams",
		"coroutine counts beyond the hardware limit keep improving efficiency — the paper's flexibility argument")
	return res, nil
}
