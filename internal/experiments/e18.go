package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E18WindowWidth reproduces the paper's intro claim that software
// mechanisms provide "on-demand scaling of concurrency": a request stream
// flows through a bounded window of interleaved coroutines (the database
// batch-execution model), and the window width is a runtime knob. CPU
// efficiency climbs with the width until the concurrency matches the
// latency/compute ratio, then flattens at the switch-overhead bound —
// no hardware redesign involved at any point.
func E18WindowWidth(mach core.Machine) (*Result, error) {
	res := newResult("E18", "on-demand concurrency scaling: request-window width (§1)")
	tbl := stats.NewTable("48 hash-join requests streamed through a W-wide window",
		"width", "cycles", "efficiency", "ipc", "switches")
	res.Tables = append(res.Tables, tbl)

	const nReq = 48
	h, err := core.NewHarness(mach, workloads.HashJoin{
		BuildRows: 8192, Buckets: 4096, Probes: 60, MatchFraction: 0.7, Instances: nReq,
	})
	if err != nil {
		return nil, err
	}
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	img, err := h.Instrument(prof, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		ts, err := h.Tasks(img, "hashjoin", coro.Primary, nReq)
		if err != nil {
			return nil, err
		}
		st, err := h.NewExecutor(img, exec.Config{}).RunWindowed(ts.Tasks, w)
		if err != nil {
			return nil, err
		}
		if err := ts.Validate(); err != nil {
			return nil, err
		}
		tbl.Row(w, st.Cycles, st.Efficiency(), st.IPC(), st.Switches)
		res.Metrics[fmt.Sprintf("w%d_eff", w)] = st.Efficiency()
		res.Metrics[fmt.Sprintf("w%d_cycles", w)] = float64(st.Cycles)
	}
	res.Notes = append(res.Notes,
		"the window is replenished from the stream as requests retire (CoroBase-style batching)",
		"width is a pure software knob — contrast with SMT's fixed 2–8 hardware contexts (E3)")
	return res, nil
}
