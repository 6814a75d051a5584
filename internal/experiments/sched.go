package experiments

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E14SchedulerIntegration reproduces the §4.2 runtime-scheduling
// discussion: an event-agnostic coroutine scheduler versus the two
// integration approaches the paper sketches — a side-car that borrows the
// scheduler's ready queue during miss shadows, and an event-aware
// scheduler that additionally co-schedules pending requests into each
// other's shadows.
func E14SchedulerIntegration(mach Machine) (*Result, error) {
	res := newResult("E14", "scheduler integration: agnostic vs sidecar vs event-aware (§4.2)")
	tbl := stats.NewTable("6 hash-join requests + 4 batch-compute tasks",
		"policy", "mean_latency", "p95_latency", "drain_cycles", "efficiency")
	res.Tables = append(res.Tables, tbl)

	const nReq, nBatch = 6, 4
	h, err := NewHarness(mach,
		workloads.HashJoin{BuildRows: 8192, Buckets: 4096, Probes: 150, MatchFraction: 0.7, Instances: nReq},
		workloads.Compute{Iters: 60000, Instances: nBatch},
	)
	if err != nil {
		return nil, err
	}
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	img, err := h.Instrument(prof, mach.PipelineOptions())
	if err != nil {
		return nil, err
	}

	for _, policy := range []service.Policy{service.Agnostic, service.Sidecar, service.EventAware} {
		reqs, err := h.Tasks(img, "hashjoin", coro.Primary, nReq)
		if err != nil {
			return nil, err
		}
		batch, err := h.Tasks(img, "compute", coro.Scavenger, nBatch)
		if err != nil {
			return nil, err
		}
		st, err := service.Drain(h.NewExecutor(img, exec.Config{}), policy, reqs.Tasks, batch.Tasks)
		if err != nil {
			return nil, fmt.Errorf("E14 %v: %w", policy, err)
		}
		if err := reqs.Validate(); err != nil {
			return nil, err
		}
		if err := batch.Validate(); err != nil {
			return nil, err
		}
		lat := make([]float64, len(st.Latencies))
		for i, l := range st.Latencies {
			lat[i] = float64(l)
		}
		sum := stats.Summarize(lat)
		tbl.Row(policy, sum.Mean, sum.P95, st.Cycles, st.Efficiency())
		res.Metrics[policy.String()+"_mean"] = sum.Mean
		res.Metrics[policy.String()+"_p95"] = sum.P95
		res.Metrics[policy.String()+"_eff"] = st.Efficiency()
	}
	res.Notes = append(res.Notes,
		"agnostic: requests round-robin with batch work at every yield (no event knowledge)",
		"sidecar: FIFO requests; the executor borrows the scheduler's ready batch tasks per miss (§4.2 approach 1)",
		"event-aware: pending requests are co-scheduled into each other's miss shadows (§4.2 approach 2)")
	return res, nil
}

// E15ProfilePortability probes the PGO deployment story behind §3.2: the
// profile is collected on one production run and applied to later builds
// serving different data. Instrumentation decisions must survive both a
// different data seed and a moderate workload shift (probe match fraction
// 0.7 → 0.4).
func E15ProfilePortability(mach Machine) (*Result, error) {
	res := newResult("E15", "profile portability: stale and shifted profiles (§3.2 deployment)")
	tbl := stats.NewTable("hash join, 8-way symmetric",
		"profile_source", "cycles", "efficiency", "vs_fresh")
	res.Tables = append(res.Tables, tbl)

	const n = 8
	target := workloads.HashJoin{BuildRows: 8192, Buckets: 4096, Probes: 300, MatchFraction: 0.4, Instances: n}

	// The deployment target: different seed and match fraction than the
	// profiled run.
	machB := mach
	machB.Seed = mach.Seed + 777
	hTarget, err := NewHarness(machB, target)
	if err != nil {
		return nil, err
	}

	base, err := hTarget.RunSymmetric(hTarget.Baseline(), "hashjoin", n, exec.Config{})
	if err != nil {
		return nil, err
	}
	tbl.Row("none (baseline)", base.Cycles, base.Efficiency(), "-")
	res.Metrics["base_eff"] = base.Efficiency()

	// Fresh profile: collected on the target itself.
	freshProf, _, err := hTarget.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	freshImg, err := hTarget.Instrument(freshProf, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	fresh, err := hTarget.RunSymmetric(freshImg, "hashjoin", n, exec.Config{})
	if err != nil {
		return nil, err
	}
	tbl.Row("fresh (same run)", fresh.Cycles, fresh.Efficiency(), "1.00x")
	res.Metrics["fresh_eff"] = fresh.Efficiency()

	// Stale profile: collected on last week's production shard — other
	// data (seed) and a different probe mix (match fraction 0.7).
	profSpec := target
	profSpec.MatchFraction = 0.7
	hProf, err := NewHarness(mach, profSpec)
	if err != nil {
		return nil, err
	}
	staleProf, _, err := hProf.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	// The binary is structurally identical, so the profile's PCs apply.
	staleImg, err := hTarget.Instrument(staleProf, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	stale, err := hTarget.RunSymmetric(staleImg, "hashjoin", n, exec.Config{})
	if err != nil {
		return nil, err
	}
	tbl.Row("stale+shifted", stale.Cycles, stale.Efficiency(),
		stats.Ratio(float64(fresh.Cycles), float64(stale.Cycles)))
	res.Metrics["stale_eff"] = stale.Efficiency()
	res.Metrics["stale_vs_fresh"] = float64(fresh.Cycles) / float64(stale.Cycles)

	res.Notes = append(res.Notes,
		"the stale profile saw different data and a 0.7 match fraction; the target serves 0.4",
		"miss behaviour is a property of the code+structure, so PGO decisions transfer — the production deployment premise")
	return res, nil
}
