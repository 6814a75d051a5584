package main

// metricDef names one metric. better is "lower" or "higher"; bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Gate marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, where the driver holds each to its bound on every
	// workload. The others go in its per_layer list, which has no bounds:
	// the sim_ ones and the two rates are defined on some workloads only,
	// fail_share must be 0 (the driver wants metrics that never are),
	// cpu_user_s says what wall_s says with more scatter, and on sweep
	// peak_rss_mb is off by a 256 MiB image whenever the collector lags
	// (README.md, "Noise").
	Gate bool
	// Exact marks simulated metrics: identical for a fixed seed, so
	// -selfcheck allows no difference at all.
	Exact bool
}

// endToEnd is the twelve metrics a user of the simulator would see.
// sim_ = simulated (exact for a fixed seed); everything else is host.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "cpu_user_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "sim_minstr_per_host_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "sim_kreq_per_host_s", Unit: "kreq/s", Better: "higher", Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim_cpu_eff", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "sim_p99_us", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim_served_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Exact: true},
}

// perLayer lists the per-layer metrics in table order. Layer names are
// the module names under internal/.
func perLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("workloads.compose_ms", "ms"),
		lo("workloads.image_mb", "MB"),
		lo("isa.codec_us", "us"),
		lo("pebs.profile_run_ms", "ms"),
		hi("pebs.samples", "count"),
		lo("pebs.dropped", "count"),
		lo("profile.build_us", "us"),
		lo("bincfg.analyse_us", "us"),
		lo("instrument.rewrite_us", "us"),
		lo("instrument.yields_inserted", "count"),
		lo("check.verify_us", "us"),
		lo("cpu.step_ns_per_instr", "ns"),
		lo("cpu.block_ns_per_instr", "ns"),
		lo("cpu.superblock_ns_per_instr", "ns"),
		lo("cpu.chase_ns_per_instr", "ns"),
		lo("cpu.chase_ns_per_hop", "ns"),
		lo("mem.access_hit_ns", "ns"),
		lo("mem.access_miss_ns", "ns"),
		lo("mem.prefetch_ns", "ns"),
		hi("mem.l1_hits", "count"),
		hi("mem.l2_hits", "count"),
		hi("mem.l3_hits", "count"),
		lo("mem.dram_fills", "count"),
		lo("mem.mshr_peak", "count"),
		lo("mem.stall_cycles", "cycles"),
		lo("mem.llc_commit_us", "us"),
		hi("mem.llc_hits", "count"),
		lo("mem.llc_misses", "count"),
		lo("mem.llc_queue_cycles", "cycles"),
		lo("exec.solo_ms", "ms"),
		lo("exec.sym_ms", "ms"),
		lo("exec.dual_ms", "ms"),
		lo("exec.switches", "count"),
		hi("exec.episodes", "count"),
		lo("exec.chains_per_episode", "ratio"),
		lo("exec.switch_cycles", "cycles"),
		lo("smt.run_ms", "ms"),
		lo("machine.new_ms", "ms"),
		lo("machine.step_us_p50", "us"),
		lo("machine.step_us_p99", "us"),
		lo("machine.quanta", "count"),
		lo("machine.barrier_ns_per_core_quantum", "ns"),
		lo("service.cell_ms.agnostic", "ms"),
		lo("service.cell_ms.sidecar", "ms"),
		lo("service.cell_ms.event-aware", "ms"),
		lo("service.cell_ms.smt", "ms"),
		lo("service.arrivals_ns_per_req", "ns"),
		lo("service.host_ns_per_sim_kcycle.c1", "ns"),
		lo("service.host_ns_per_sim_kcycle.c4", "ns"),
		lo("service.mcore_cost_ratio", "ratio"),
		lo("service.switches", "count"),
		hi("service.episodes", "count"),
		lo("service.dropped", "count"),
		lo("service.shed", "count"),
		lo("runner.sweep_wall_s", "s"),
		lo("runner.overhead_ms", "ms"),
		lo("runner.cache_put_ms", "ms"),
		lo("runner.cache_get_ms", "ms"),
		lo("runner.warm_replay_ms", "ms"),
		lo("runner.cache_bytes", "bytes"),
		lo("runner.sys_s", "s"),
	}
	for _, id := range sweepExperiments() {
		defs = append(defs, lo("experiments."+id+"_s", "s"))
	}
	return append(defs,
		lo("trace.export_ms", "ms"),
		lo("metrics.obs_overhead_pct", "%"),
		lo("bench.trace_overhead_pct", "%"),
	)
}

// spanMetrics maps a per-layer timing metric to the spans whose
// durations it sums and the divisor from nanoseconds to its unit.
var spanMetrics = []struct {
	metric string
	spans  []string
	div    float64
}{
	{"workloads.compose_ms", []string{"workloads.compose"}, 1e6},
	{"isa.codec_us", []string{"isa.encode", "isa.decode"}, 1e3},
	{"pebs.profile_run_ms", []string{"pebs.profile_run"}, 1e6},
	{"profile.build_us", []string{"profile.build"}, 1e3},
	{"bincfg.analyse_us", []string{"bincfg.analyse"}, 1e3},
	{"instrument.rewrite_us", []string{"instrument.rewrite"}, 1e3},
	{"check.verify_us", []string{"check.verify"}, 1e3},
	{"exec.solo_ms", []string{"exec.solo"}, 1e6},
	{"exec.sym_ms", []string{"exec.sym"}, 1e6},
	{"exec.dual_ms", []string{"exec.dual"}, 1e6},
	{"machine.new_ms", []string{"machine.new"}, 1e6},
	{"service.cell_ms.agnostic", []string{"service.cell.agnostic"}, 1e6},
	{"service.cell_ms.sidecar", []string{"service.cell.sidecar"}, 1e6},
	{"service.cell_ms.event-aware", []string{"service.cell.event-aware"}, 1e6},
	{"service.cell_ms.smt", []string{"service.cell.smt"}, 1e6},
}
