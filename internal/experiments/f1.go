package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/exec"
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
	// The pad-0 durations share one spec: compose each spec once and run
	// every duration's machines over it.
	composed := map[workloads.PaddedChase]*Harness{}
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
		m.Mem.LatL3 = min(m.Mem.LatL3, d)
		m.Mem.LatL2 = min(m.Mem.LatL2, m.Mem.LatL3)
		m.Mem.LatL1 = min(m.Mem.LatL1, m.Mem.LatL2)
		m.CPU.PipelineAbsorb = m.Mem.LatL1

		h := composed[spec]
		var err error
		if h == nil {
			h, err = NewHarness(m, spec)
			composed[spec] = h
		} else {
			h, err = h.On(m)
		}
		if err != nil {
			return nil, err
		}
		base := h.Baseline()

		// Mechanism: nothing.
		none, err := h.RunSolo(base, "padchase", exec.Config{})
		if err != nil {
			return nil, err
		}

		// Mechanism: out-of-order window (absorbs up to ~10 ns of latency).
		mOoO := m
		mOoO.CPU.PipelineAbsorb = max(oooWindowCycles, m.CPU.PipelineAbsorb)
		hOoO, err := h.On(mOoO)
		if err != nil {
			return nil, err
		}
		ooo, err := hOoO.RunSolo(hOoO.Baseline(), "padchase", exec.Config{})
		if err != nil {
			return nil, err
		}

		// Mechanism: SMT with 2 and 8 hardware contexts.
		smt2, err := h.RunSMT(base, "padchase", 2, exec.Config{MaxSteps: 1 << 28})
		if err != nil {
			return nil, err
		}
		smt8, err := h.RunSMT(base, "padchase", 8, exec.Config{MaxSteps: 1 << 28})
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
		coro16, err := h.RunSymmetric(img, "padchase", nInstances, exec.Config{})
		if err != nil {
			return nil, err
		}

		// Mechanism: the same interleaving priced at OS-thread switches.
		os16, err := h.RunSymmetric(img, "padchase", nInstances, exec.Config{Switch: baselines.OSThreadCostModel()})
		if err != nil {
			return nil, err
		}

		ns := NS(float64(d))
		key := fmt.Sprintf("d%dns", int(ns))
		row, winner, best := []any{fmt.Sprintf("%.0f", ns)}, "none", none.Efficiency()
		for _, c := range []struct {
			name, key string
			eff       float64
		}{
			{"none", "none", none.Efficiency()}, {"OoOE", "ooo", ooo.Efficiency()},
			{"SMT-2", "smt2", smt2.Efficiency()}, {"SMT-8", "smt8", smt8.Efficiency()},
			{"coro-16", "coro", coro16.Efficiency()}, {"OS-16", "os", os16.Efficiency()},
		} {
			if c.eff > best {
				best, winner = c.eff, c.name
			}
			row = append(row, c.eff)
			res.Metrics[key+"_"+c.key] = c.eff
		}
		tbl.Row(append(row, winner)...)
	}
	res.Notes = append(res.Notes,
		"event = dependent-load service latency; all mechanisms run the same 16-instance pointer-chase work",
		fmt.Sprintf("OoOE modelled as a %d-cycle absorb window; SMT switches on stall with zero overhead", oooWindowCycles))
	return res, nil
}
