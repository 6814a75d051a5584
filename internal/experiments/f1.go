package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// f1Durations are the modelled event durations in cycles (at 3 GHz:
// 4 ns … 10 µs), spanning Figure 1's x-axis.
var f1Durations = []uint64{12, 30, 90, 300, 900, 3000, 9000, 30000}

// oooWindowCycles models the latency an out-of-order window hides for
// free (~10 ns: a ROB's worth of independent work).
const oooWindowCycles = 30

// F1Spectrum reproduces Figure 1: for events of increasing duration,
// which mechanism keeps the CPU busy? The event is a dependent load whose
// service latency is the event duration (the chase workload with the
// memory latency set to D); each mechanism runs the same total work.
//
// Expected shape: out-of-order execution wins below ~10 ns; SMT helps but
// plateaus (2–8 contexts) in the 10–100 ns band; coroutines + PGO own
// 10 ns–1 µs; OS scheduling becomes viable only at µs scale, where its
// switch cost amortizes.
func F1Spectrum(mach Machine) (*Result, error) {
	res := newResult("F1", "event-duration spectrum: efficiency by hiding mechanism (Figure 1)")
	tbl := stats.NewTable("CPU efficiency vs event duration",
		"event_ns", "none", "OoOE", "SMT-2", "SMT-8", "coro-16", "OS-16", "winner")
	res.Tables = append(res.Tables, tbl)

	const nInstances = 16
	for _, d := range f1Durations {
		// Short events (cache misses) arrive densely — ~10 cycles of
		// compute per event, so full hiding needs tens of concurrent
		// streams, beyond any SMT. Long events (I/O-scale) come from
		// workloads that also compute more per event (pad grows), which
		// is what lets heavyweight mechanisms amortize their switches.
		pad := 0
		if d > 900 {
			pad = int(d / 20)
		}
		workPerHop := 3*pad + 12
		hops := 240000 / workPerHop
		if hops > 800 {
			hops = 800
		}
		if hops < 80 {
			hops = 80
		}
		spec := workloads.PaddedChase{Nodes: 8192, Hops: hops, Pad: pad, Instances: nInstances}

		m := mach
		m.Mem.LatDRAM = d
		m.Mem.LatL3 = minU64(m.Mem.LatL3, d)
		m.Mem.LatL2 = minU64(m.Mem.LatL2, m.Mem.LatL3)
		m.Mem.LatL1 = minU64(m.Mem.LatL1, m.Mem.LatL2)
		m.CPU.PipelineAbsorb = m.Mem.LatL1

		h, err := NewHarness(m, spec)
		if err != nil {
			return nil, err
		}
		base := h.Baseline()

		// Mechanism: nothing.
		effNone, err := f1Solo(h, base)
		if err != nil {
			return nil, err
		}

		// Mechanism: out-of-order window (absorbs up to ~10 ns of latency).
		mOoO := m
		mOoO.CPU.PipelineAbsorb = maxU64(oooWindowCycles, m.CPU.PipelineAbsorb)
		hOoO, err := NewHarness(mOoO, spec)
		if err != nil {
			return nil, err
		}
		effOoO, err := f1Solo(hOoO, hOoO.Baseline())
		if err != nil {
			return nil, err
		}

		// Mechanism: SMT with 2 and 8 hardware contexts.
		effSMT2, err := f1SMT(h, base, 2)
		if err != nil {
			return nil, err
		}
		effSMT8, err := f1SMT(h, base, 8)
		if err != nil {
			return nil, err
		}

		// Mechanism: profile-guided coroutines, 16-way symmetric.
		prof, _, err := h.Profile("padchase")
		if err != nil {
			return nil, err
		}
		img, err := h.Instrument(prof, m.PipelineOptions())
		if err != nil {
			return nil, err
		}
		effCoro, err := f1Symmetric(h, img, nInstances, h.Mach.Switch)
		if err != nil {
			return nil, err
		}

		// Mechanism: the same interleaving priced at OS-thread switches.
		effOS, err := f1Symmetric(h, img, nInstances, baselines.OSThreadCostModel())
		if err != nil {
			return nil, err
		}

		winner := "none"
		best := effNone
		for _, c := range []struct {
			name string
			eff  float64
		}{{"OoOE", effOoO}, {"SMT-2", effSMT2}, {"SMT-8", effSMT8}, {"coro-16", effCoro}, {"OS-16", effOS}} {
			if c.eff > best {
				best = c.eff
				winner = c.name
			}
		}
		ns := NS(float64(d))
		tbl.Row(fmt.Sprintf("%.0f", ns), effNone, effOoO, effSMT2, effSMT8, effCoro, effOS, winner)
		key := fmt.Sprintf("d%dns", int(ns))
		res.Metrics[key+"_none"] = effNone
		res.Metrics[key+"_ooo"] = effOoO
		res.Metrics[key+"_smt2"] = effSMT2
		res.Metrics[key+"_smt8"] = effSMT8
		res.Metrics[key+"_coro"] = effCoro
		res.Metrics[key+"_os"] = effOS
	}
	res.Notes = append(res.Notes,
		"event = dependent-load service latency; all mechanisms run the same 16-instance pointer-chase work",
		fmt.Sprintf("OoOE modelled as a %d-cycle absorb window; SMT switches on stall with zero overhead", oooWindowCycles))
	return res, nil
}

func f1Solo(h *Harness, img *Image) (float64, error) {
	ts, err := h.Tasks(img, "padchase", coro.Primary, 1)
	if err != nil {
		return 0, err
	}
	ex := h.NewExecutor(img, exec.Config{})
	st, err := ex.RunSolo(ts.Tasks[0])
	if err != nil {
		return 0, err
	}
	if err := ts.Validate(); err != nil {
		return 0, err
	}
	return st.Efficiency(), nil
}

func f1Symmetric(h *Harness, img *Image, n int, switchModel coro.CostModel) (float64, error) {
	ts, err := h.Tasks(img, "padchase", coro.Primary, n)
	if err != nil {
		return 0, err
	}
	ex := h.NewExecutor(img, exec.Config{Switch: switchModel})
	st, err := ex.RunSymmetric(ts.Tasks)
	if err != nil {
		return 0, err
	}
	if err := ts.Validate(); err != nil {
		return 0, err
	}
	return st.Efficiency(), nil
}

func f1SMT(h *Harness, img *Image, k int) (float64, error) {
	ts, err := h.Tasks(img, "padchase", coro.Primary, k)
	if err != nil {
		return 0, err
	}
	core := h.NewExecutor(img, exec.Config{}).Core
	var ctxs []*coro.Context
	for _, t := range ts.Tasks {
		ctxs = append(ctxs, t.Ctx)
	}
	st, err := smt.Run(core, smt.Config{Contexts: k, Quantum: 4, MaxSteps: 1 << 28}, ctxs)
	if err != nil {
		return 0, err
	}
	if err := ts.Validate(); err != nil {
		return 0, err
	}
	return st.Efficiency(), nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
