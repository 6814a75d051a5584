package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// dualScenario composes the latency-sensitive request (a hash-join probe
// batch) with the given background workload in one image.
func dualScenario(mach core.Machine, scavSpec workloads.Spec) (*core.Harness, error) {
	return core.NewHarness(mach,
		workloads.HashJoin{BuildRows: 8192, Buckets: 4096, Probes: 250, MatchFraction: 0.7, Instances: 1},
		scavSpec,
	)
}

// E7DualMode reproduces §3.3's central claim: asymmetric concurrency
// achieves near-solo latency for the primary *and* high CPU efficiency,
// where symmetric interleaving trades one for the other.
func E7DualMode(mach core.Machine) (*Result, error) {
	res := newResult("E7", "asymmetric concurrency: primary latency vs CPU efficiency (§3.3)")
	tbl := stats.NewTable("hash-join primary + 4 batch-compute scavengers",
		"discipline", "primary_cycles", "latency_vs_solo", "efficiency", "episodes")
	res.Tables = append(res.Tables, tbl)

	// Batch co-runners with substantial work each: under symmetric
	// scheduling the primary waits behind them; under dual-mode they run
	// only inside its miss shadows.
	h, err := dualScenario(mach, workloads.Compute{Iters: 100000, Instances: 4})
	if err != nil {
		return nil, err
	}
	profJoin, _, err := h.Profile("hashjoin")
	if err != nil {
		return nil, err
	}

	// Solo baseline latency (uninstrumented).
	baseStats, err := h.RunSolo(h.Baseline(), "hashjoin", exec.Config{})
	if err != nil {
		return nil, err
	}
	solo := baseStats.Cycles
	tbl.Row("solo (no interleaving)", solo, "1.00x", baseStats.Efficiency(), 0)
	res.Metrics["solo_latency"] = float64(solo)
	res.Metrics["solo_eff"] = baseStats.Efficiency()

	img, err := h.Instrument(profJoin, mach.PipelineOptions())
	if err != nil {
		return nil, err
	}

	// Symmetric interleaving: throughput discipline, no priorities.
	all, err := h.Tasks(img, "hashjoin", coro.Primary, 1)
	if err != nil {
		return nil, err
	}
	sts, err := h.Tasks(img, "compute", coro.Scavenger, 4)
	if err != nil {
		return nil, err
	}
	all.Merge(sts)
	symStats, err := h.NewExecutor(img, exec.Config{}).RunSymmetric(all.Tasks)
	if err != nil {
		return nil, err
	}
	if err := all.Validate(); err != nil {
		return nil, err
	}
	symLat := symStats.Latencies[0]
	tbl.Row("symmetric (5 equals)", symLat,
		stats.Ratio(float64(symLat), float64(solo)), symStats.Efficiency(), 0)
	res.Metrics["sym_latency"] = float64(symLat)
	res.Metrics["sym_eff"] = symStats.Efficiency()

	// Dual mode: primary + scavengers.
	dualStats, err := h.RunDualMode(img, "hashjoin", "compute", 4, exec.Config{})
	if err != nil {
		return nil, err
	}
	tbl.Row("dual-mode (1 primary + 4 scavengers)", dualStats.PrimaryLatency,
		stats.Ratio(float64(dualStats.PrimaryLatency), float64(solo)),
		dualStats.Efficiency(), dualStats.Episodes)
	res.Metrics["dual_latency"] = float64(dualStats.PrimaryLatency)
	res.Metrics["dual_eff"] = dualStats.Efficiency()
	res.Metrics["dual_episodes"] = float64(dualStats.Episodes)

	res.Notes = append(res.Notes,
		"symmetric interleaving inflates primary latency toward Nx; dual-mode stays near solo",
		"dual-mode efficiency approaches symmetric: scavengers run precisely in the miss shadows")
	return res, nil
}

// E8ScavengerScaling reproduces §3.3's on-demand scaling: a pointer-chasing
// scavenger hits its own misses and must chain to further scavengers,
// whereas a compute-bound scavenger hides a miss alone.
func E8ScavengerScaling(mach core.Machine) (*Result, error) {
	res := newResult("E8", "scavenger chaining on demand (§3.3)")
	tbl := stats.NewTable("chained scavengers per primary miss episode",
		"scavenger_kind", "episodes", "chain_switches", "chains_per_episode", "efficiency")
	res.Tables = append(res.Tables, tbl)

	kinds := []struct {
		label string
		spec  workloads.Spec
	}{
		{"compute (no misses)", workloads.Compute{Iters: 100_000_000, Instances: 4}},
		{"pointer chase (missing)", workloads.PointerChase{Nodes: 8192, Hops: 20000, Instances: 4}},
	}
	for _, kind := range kinds {
		h, err := dualScenario(mach, kind.spec)
		if err != nil {
			return nil, err
		}
		prof, _, err := h.Profile("hashjoin")
		if err != nil {
			return nil, err
		}
		if kind.spec.Name() == "chase" {
			pc, _, err := h.Profile("chase")
			if err != nil {
				return nil, err
			}
			if err := prof.Merge(pc); err != nil {
				return nil, err
			}
		}
		img, err := h.Instrument(prof, mach.PipelineOptions())
		if err != nil {
			return nil, err
		}
		st, err := h.RunDualMode(img, "hashjoin", kind.spec.Name(), 4, exec.Config{})
		if err != nil {
			return nil, err
		}
		chains := 0.0
		if st.Episodes > 0 {
			chains = float64(st.ChainSwitches) / float64(st.Episodes)
		}
		tbl.Row(kind.label, st.Episodes, st.ChainSwitches, chains, st.Efficiency())
		res.Metrics[kind.spec.Name()+"_chains_per_episode"] = chains
	}
	res.Notes = append(res.Notes,
		"a compute scavenger reaches a scavenger-phase yield and returns directly",
		"a chasing scavenger yields at its own misses and hands on to the next scavenger (§3.3's example)")
	return res, nil
}

// E9IntervalSweep reproduces §3.3's scavenger-instrumentation knob: the
// target inter-yield interval trades yield-check overhead (too small)
// against primary-visible delay (too large). The paper suggests ~100 ns.
func E9IntervalSweep(mach core.Machine) (*Result, error) {
	res := newResult("E9", "scavenger inter-yield interval sweep (§3.3)")
	tbl := stats.NewTable("hash-join primary + compute scavengers",
		"interval_ns", "primary_cycles", "avg_overshoot", "efficiency", "switches")
	res.Tables = append(res.Tables, tbl)

	// The scavenger's straight-line body is ~4000 cycles long, so its
	// yield spacing is governed by the target interval (the loop-edge
	// guarantee alone would be far too sparse).
	h, err := dualScenario(mach, workloads.UnrolledCompute{BlockInstrs: 4000, Iters: 1 << 20, Instances: 2})
	if err != nil {
		return nil, err
	}
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	for _, interval := range []uint64{30, 100, 300, 1000, 3000} {
		opts := mach.PipelineOptions()
		opts.Scavenger.TargetInterval = interval
		img, err := h.Instrument(prof, opts)
		if err != nil {
			return nil, err
		}
		st, err := h.RunDualMode(img, "hashjoin", "unrolled", 2, exec.Config{})
		if err != nil {
			return nil, err
		}
		overshoot := 0.0
		if st.Episodes > 0 {
			overshoot = float64(st.PrimaryDelay) / float64(st.Episodes)
		}
		tbl.Row(fmt.Sprintf("%.0f", core.NS(float64(interval))), st.PrimaryLatency, overshoot,
			st.Efficiency(), st.Switches)
		res.Metrics[fmt.Sprintf("interval_%d_latency", interval)] = float64(st.PrimaryLatency)
		res.Metrics[fmt.Sprintf("interval_%d_overshoot", interval)] = overshoot
		res.Metrics[fmt.Sprintf("interval_%d_eff", interval)] = st.Efficiency()
	}
	res.Notes = append(res.Notes,
		"overshoot = cycles the primary waited beyond its residual fill, averaged per episode",
		"paper §3.3: the interval must be bounded but sufficient to hide L2/L3 misses (~100 ns)")
	return res, nil
}
