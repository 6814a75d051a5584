package main

import (
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// This file turns a traced rep into per-layer numbers. Timings that a
// rep's spans already hold are folded from them (spanMetrics and the
// ratios below); calls a rep makes too briefly, or only from deep inside
// another layer, are timed here directly against the layer's public
// functions. All of it runs in the traced pass only.

// spanNS sums the named spans' durations in nanoseconds.
func spanNS(spans []span, names ...string) float64 {
	var ns float64
	for _, name := range names {
		for _, d := range durations(spans, name) {
			ns += d
		}
	}
	return ns
}

// per divides, leaving 0 when the divisor is.
func per(x, by float64) float64 {
	if by == 0 {
		return 0
	}
	return x / by
}

func layersPipeline(e *env, spans []span, traced *repOut, m map[string]float64) error {
	solo := spanNS(spans, "exec.solo")
	m["cpu.chase_ns_per_instr"] = per(solo, traced.vals["_solo_retired"])
	m["cpu.chase_ns_per_hop"] = per(solo, float64(e.sz.chaseHops))

	pi := traced.stash.(*pipelineImages)
	memReplay(pi.h.Mach.Mem, pi.h.Sc, "chase", e.sz.replay, m)

	// Observability cost: the same dual-mode run with the trace ring
	// and metrics registry on and off, alternating, median of 3 pairs.
	var on, off []float64
	var ring *repro.TraceRing
	for i := 0; i < 3; i++ {
		cfg, rg := newObservedConfig()
		t := time.Now()
		_, ex, err := runDual(pi.h, pi.img, cfg)
		if err != nil {
			return err
		}
		ex.CaptureMetrics()
		on = append(on, float64(time.Since(t)))
		ring = rg
		t = time.Now()
		if _, _, err := runDual(pi.h, pi.img, exec.Config{}); err != nil {
			return err
		}
		off = append(off, float64(time.Since(t)))
	}
	base := summarize(off).Median
	m["metrics.obs_overhead_pct"] = per(summarize(on).Median-base, base) * 100
	t := time.Now()
	if err := trace.WriteChromeTrace(io.Discard, ring.Events(), trace.ChromeTraceOptions{}); err != nil {
		return err
	}
	m["trace.export_ms"] = float64(time.Since(t)) / 1e6
	return nil
}

// memReplay times Hierarchy.AccessW and Prefetch from outside, replaying
// the address stream the named chase part's first instance walks: the
// whole stream against a cold hierarchy (its footprint exceeds the L3,
// so nearly every access goes to DRAM), a 16-line slice of it over and
// over (cache hits), and a prefetch of every address.
func memReplay(cfg mem.Config, sc *workloads.Scenario, part string, n int, m map[string]float64) {
	addrs := make([]uint64, n)
	addr := sc.Part(part).Instances[0].Regs[1]
	for i := range addrs {
		addrs[i] = addr
		addr = sc.Mem.MustRead64(addr)
	}

	h := mem.MustNewHierarchy(cfg)
	var now uint64
	t := time.Now()
	for _, a := range addrs {
		now += h.AccessW(a, now, false).Latency
	}
	m["mem.access_miss_ns"] = float64(time.Since(t)) / float64(n)

	h = mem.MustNewHierarchy(cfg)
	now = 0
	t = time.Now()
	for i := range addrs {
		now += h.AccessW(addrs[i&15], now, false).Latency
	}
	m["mem.access_hit_ns"] = float64(time.Since(t)) / float64(n)

	h = mem.MustNewHierarchy(cfg)
	now = 0
	step := cfg.LatDRAM + 1 // each fill lands before the next prefetch
	t = time.Now()
	for _, a := range addrs {
		h.Prefetch(a, now)
		now += step
	}
	m["mem.prefetch_ns"] = float64(time.Since(t)) / float64(n)
}

func layersALU(e *env, spans []span, traced *repOut, m map[string]float64) error {
	for _, tier := range []string{"step", "block", "superblock"} {
		m["cpu."+tier+"_ns_per_instr"] = per(spanNS(spans, "cpu."+tier), traced.vals["_retired."+tier])
	}
	return nil
}

// cellNS sums every service.cell.* span.
func cellNS(spans []span) float64 {
	var ns float64
	for _, p := range []service.Policy{service.Agnostic, service.Sidecar, service.EventAware, service.OSThread, service.SMT} {
		ns += spanNS(spans, "service.cell."+p.String())
	}
	return ns
}

func layersServe1(e *env, spans []span, traced *repOut, m map[string]float64) error {
	m["service.host_ns_per_sim_kcycle.c1"] = per(cellNS(spans), traced.vals["_core_kcycles"])

	n := e.sz.replay
	t := time.Now()
	arr, err := service.NewArrivals(service.ArrivalSpec{Kind: service.Poisson, Rate: e.sz.serveRates[0]}, e.seed)
	if err != nil {
		return err
	}
	var last uint64
	for i := 0; i < n; i++ {
		last = arr.Next()
	}
	m["service.arrivals_ns_per_req"] = float64(time.Since(t)) / float64(n)
	e.chk.ok(last > 0, "arrival process did not advance")

	// smt.Run over chase contexts of the request kernel's shape, with
	// enough hops to time.
	mach := e.machine()
	h, err := core.NewHarness(mach, workloads.PointerChase{Nodes: 1024, Hops: e.sz.smtHops, Instances: 4})
	if err != nil {
		return err
	}
	img := h.Baseline()
	ts, err := h.Tasks(img, "chase", coro.Primary, 0)
	if err != nil {
		return err
	}
	var ctxs []*coro.Context
	for _, task := range ts.Tasks {
		ctxs = append(ctxs, task.Ctx)
	}
	c := h.NewExecutor(img, exec.Config{}).Core
	t = time.Now()
	_, err = smt.Run(c, smt.Config{Contexts: len(ctxs), Quantum: smt.DefaultConfig().Quantum, MaxSteps: 1 << 40}, ctxs)
	m["smt.run_ms"] = float64(time.Since(t)) / 1e6
	if err != nil {
		return err
	}
	e.chk.noErr(ts.Validate(), "smt.Run vs host reference")
	return nil
}

func layersServeM(e *env, spans []span, traced *repOut, m map[string]float64) error {
	c4 := per(cellNS(spans), traced.vals["_core_kcycles"])
	m["service.host_ns_per_sim_kcycle.c4"] = c4

	// The same cell on one core, a quarter of the requests, for the
	// cost ratio: host ns per simulated core-kilocycle, many-core over
	// single-core.
	cfg, err := serveConfig([]service.Policy{service.EventAware}, e.sz.mcoreRates[:1], e.sz.mcoreReqs/4, 1)
	if err != nil {
		return err
	}
	t := time.Now()
	cs, err := service.RunCell(e.machine(), cfg, cfg.Cells()[0])
	ns := float64(time.Since(t))
	if err != nil {
		return err
	}
	c1 := per(ns, float64(cs.Cycles)/1e3)
	m["service.host_ns_per_sim_kcycle.c1"] = c1
	m["service.mcore_cost_ratio"] = per(c4, c1)
	return nil
}

func layersMachine(e *env, spans []span, traced *repOut, m map[string]float64) error {
	steps := durations(spans, "machine.step")
	m["machine.step_us_p50"] = percentile(steps, 0.50) / 1e3
	m["machine.step_us_p99"] = percentile(steps, 0.99) / 1e3
	m["machine.barrier_ns_per_core_quantum"] = per(spanNS(spans, "machine.run.B"),
		traced.vals["_quanta.B"]*float64(e.sz.cores))

	// SharedLLC.Commit after each view logged a quantum's worth of
	// demands, median over many quanta.
	llc, err := mem.NewSharedLLC(mem.DefaultLLCConfig(e.sz.cores))
	if err != nil {
		return err
	}
	views := make([]*mem.LLCView, e.sz.cores)
	for i := range views {
		views[i] = llc.NewView(i)
	}
	const quanta, demands = 400, 64
	commits := make([]float64, quanta)
	var line uint64
	for q := range commits {
		for _, v := range views {
			for i := 0; i < demands; i++ {
				line += 64 * 97 // stride past the stream detector, across banks
				v.Demand(line % e.sz.memBytes)
			}
		}
		t := time.Now()
		llc.Commit()
		commits[q] = float64(time.Since(t))
	}
	m["mem.llc_commit_us"] = summarize(commits).Median / 1e3

	mach := e.machine()
	sc, err := workloads.Compose(mach.MemBytes, mach.Seed,
		workloads.PointerChase{Nodes: e.sz.machNodes, Hops: 1, Instances: 1})
	if err != nil {
		return err
	}
	memReplay(mach.Mem, sc, "chase", e.sz.replay, m)
	return nil
}

func layersSweep(e *env, spans []span, traced *repOut, m map[string]float64) error {
	cold := traced.stash.([]repro.RunReport)
	dir, err := os.MkdirTemp(e.dir, "codec-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := runner.OpenCache(dir)
	if err != nil {
		return err
	}
	t := time.Now()
	for _, rr := range cold {
		if err := c.Put(rr.Job, rr.Res); err != nil {
			return err
		}
	}
	m["runner.cache_put_ms"] = float64(time.Since(t)) / 1e6
	t = time.Now()
	hits := 0
	for _, rr := range cold {
		if _, ok := c.Get(rr.Job); ok {
			hits++
		}
	}
	m["runner.cache_get_ms"] = float64(time.Since(t)) / 1e6
	e.chk.ok(hits == len(cold), "cache returned %d of %d entries just put", hits, len(cold))
	return nil
}

// newObservedConfig is an exec.Config with the WithObservability pair
// (trace ring + metrics registry) switched on.
func newObservedConfig() (exec.Config, *repro.TraceRing) {
	ring := repro.NewTraceRing(1 << 16)
	return exec.Config{Tracer: ring, Metrics: &metrics.Registry{}}, ring
}
