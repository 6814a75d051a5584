// Command shrun executes a workload scenario — baseline or an
// instrumented image produced by shinstr — under one of the runtime
// disciplines and reports cycle-level statistics. Every coroutine's
// result is validated against the host-reference value, so a bad rewrite
// fails loudly instead of producing plausible numbers.
//
// With -seeds N the run fans out across N scenario seeds on the
// parallel runner and reports per-seed cycles plus metric stability;
// -cache serves repeated cells from the content-addressed cache.
// Observability follows the library's Observe surface: -metrics prints
// the cycle-domain counter registry, -trace-out writes the retained
// scheduling events as Chrome trace-event JSON for Perfetto.
//
// Usage:
//
//	shrun -workload hashjoin -mode symmetric -n 8
//	shrun -workload hashjoin -image hashjoin.instrumented.img -mode dual -scavengers 4
//	shrun -workload bst -mode dual -metrics -trace-out bst.trace.json
//	shrun -workload bst -mode symmetric -n 8 -seeds 5 -parallel 4 -cache
//
// With -serve the tool switches to the open-loop service harness:
// requests arrive on their own simulated clock (Poisson by default) and
// the policy × offered-load grid renders throughput and p50/p99/p999
// sojourn tables:
//
//	shrun -serve -workload bst -arrivals poisson -rate 0.05,0.1,0.2 \
//	    -requests 2000 -policy agnostic,event-aware -parallel 4 -cache
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// options collects everything run needs, so tests can drive it without
// a process-global flag set.
type options struct {
	wf         cli.WorkloadFlags
	tf         cli.TopologyFlags
	sf         cli.ServiceFlags
	imagePath  string
	mode       string
	n          int
	scavengers int
	hwAssist   bool
	traceN     int
	traceOut   string
	metrics    bool
	seeds      int
	parallel   int
	cache      bool
	cacheDir   string
}

func main() {
	fs := flag.NewFlagSet("shrun", flag.ExitOnError)
	cli.InstallUsage(fs)
	var o options
	o.wf.Register(fs)
	o.tf.Register(fs)
	o.sf.Register(fs)
	fs.StringVar(&o.imagePath, "image", "", "instrumented image from shinstr (default: uninstrumented baseline)")
	fs.StringVar(&o.mode, "mode", "solo", "solo | symmetric | dual")
	fs.IntVar(&o.n, "n", 1, "coroutines to run (solo/symmetric)")
	fs.IntVar(&o.scavengers, "scavengers", 3, "scavenger coroutines (dual mode; instance 0 is the primary)")
	fs.BoolVar(&o.hwAssist, "hwassist", false, "enable the §4.1 cache-presence probe at primary yields")
	fs.IntVar(&o.traceN, "trace", 0, "retain and dump the last N scheduling events")
	fs.StringVar(&o.traceOut, "trace-out", "", "write retained trace events as Chrome trace-event JSON to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print the cycle-domain observability counters after the run")
	fs.IntVar(&o.seeds, "seeds", 1, "run the scenario under N seeds and summarize stability")
	fs.IntVar(&o.parallel, "parallel", 1, "worker goroutines for the seed sweep (0 = GOMAXPROCS)")
	fs.BoolVar(&o.cache, "cache", false, "serve and store sweep results in the content-addressed cache")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "cache directory (implies -cache; default ~/.cache/softhide)")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "shrun:", err)
		os.Exit(1)
	}
}

// observe bundles the run's observability state: the ring backing both
// -trace and -trace-out, and the registry backing -metrics.
type observe struct {
	ring *trace.Ring
	reg  *metrics.Registry
}

func newObserve(o options) observe {
	var ob observe
	if n := o.traceN; n > 0 || o.traceOut != "" {
		if n == 0 {
			n = 1 << 16 // -trace-out alone: retain a generous window
		}
		ob.ring = trace.NewRing(n)
	}
	if o.metrics {
		ob.reg = &metrics.Registry{}
	}
	return ob
}

// finish renders the observability tail of a run: metrics table, trace
// dump/summary, and the Chrome trace export.
func (ob observe) finish(w io.Writer, o options, dumpEvents bool) error {
	if ob.reg != nil {
		fmt.Fprint(w, ob.reg.Snapshot().Table().String())
	}
	if ob.ring == nil {
		return nil
	}
	if dumpEvents && o.traceN > 0 {
		fmt.Fprintf(w, "\ntrace: %s\n", ob.ring.Summary())
		if err := ob.ring.Dump(w); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, ob.ring.Events(), trace.ChromeTraceOptions{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d event(s) exported to %s (load in Perfetto / chrome://tracing)\n",
			ob.ring.Total(), o.traceOut)
	}
	return nil
}

func run(w io.Writer, o options) error {
	if err := o.tf.Check(); err != nil {
		return err
	}
	if err := o.sf.Check(); err != nil {
		return err
	}
	if o.sf.Serve {
		return runServe(w, o)
	}
	if o.tf.Cores > 1 {
		// Upfront validation: many-core runs rebuild per-core baseline
		// scenarios and keep observability per core.
		if o.imagePath != "" {
			return fmt.Errorf("-image is a single-scenario binary; many-core runs rebuild per-core baselines, drop -cores or -image")
		}
		if o.mode == "dual" {
			return fmt.Errorf("dual mode is a single-core discipline; use -mode solo or symmetric with -cores")
		}
	}
	if o.seeds > 1 {
		if o.imagePath != "" {
			return fmt.Errorf("-seeds rebuilds the scenario per seed, which invalidates a fixed -image; drop one of them")
		}
		return runSweep(w, o)
	}
	if o.tf.Cores > 1 {
		return runMachine(w, o)
	}
	if o.mode == "dual" && o.scavengers+1 > o.wf.Instances {
		return fmt.Errorf("dual mode needs %d instances (1 primary + %d scavengers); pass -instances", o.scavengers+1, o.scavengers)
	}
	h, part, err := o.wf.Harness()
	if err != nil {
		return err
	}
	img := h.Baseline()
	if o.imagePath != "" {
		f, err := os.Open(o.imagePath)
		if err != nil {
			return err
		}
		defer f.Close()
		fileImg, err := isa.LoadImage(f)
		if err != nil {
			return err
		}
		prog, err := isa.Decode(fileImg)
		if err != nil {
			return err
		}
		// Entry points travel in the symbol table ("<part>.main").
		entries := map[string]int{}
		for name, idx := range prog.Symbols {
			if strings.HasSuffix(name, ".main") {
				entries[strings.TrimSuffix(name, ".main")] = idx
			}
		}
		if _, ok := entries[part]; !ok {
			return fmt.Errorf("image has no entry symbol %s.main", part)
		}
		img = &core.Image{Prog: prog, Entries: entries}
	}

	ob := newObserve(o)
	st, err := execute(h, img, part, o, ob)
	if err != nil {
		return err
	}
	if o.mode == "dual" {
		fmt.Fprintf(w, "primary latency: %d cycles (%.0f ns), %d hide episodes, %d scavenger chains\n",
			st.PrimaryLatency, core.NS(float64(st.PrimaryLatency)), st.Episodes, st.ChainSwitches)
		if o.hwAssist {
			fmt.Fprintf(w, "presence probe skipped %d yields\n", st.HWSkips)
		}
	}

	fmt.Fprintf(w, "%s/%s: %d cycles (%.0f ns simulated)\n", o.wf.Workload, o.mode, st.Cycles, core.NS(float64(st.Cycles)))
	fmt.Fprintf(w, "  efficiency: %.1f%% busy, %.1f%% stalled, %d switches (%d cycles)\n",
		st.Efficiency()*100, st.StallFraction()*100, st.Switches, st.Switch)
	fmt.Fprintf(w, "  retired:    %d instructions, IPC %.2f\n", st.Retired, st.IPC())
	fmt.Fprintf(w, "  results validated against host reference: ok\n")
	return ob.finish(w, o, true)
}

// runServe drives the open-loop service harness: requests built from
// -workload (one instance = one request, -workers in flight) arrive on
// their own clock and are served under every -policy at every -rate,
// through the canonical Session.Serve sweep — cells fan out on the
// runner's worker pool and are served from the content-addressed cache
// when -cache is set. With -cores N each cell load-balances its one
// arrival stream across N per-core policy engines contending for the
// shared LLC under the cycle-quantum kernel.
func runServe(w io.Writer, o options) error {
	if o.imagePath != "" {
		return fmt.Errorf("-serve rebuilds the request scenario per cell; drop -image")
	}
	if o.seeds > 1 {
		return fmt.Errorf("-serve sweeps offered load, not seeds; drop -seeds")
	}
	if o.metrics || o.traceN > 0 || o.traceOut != "" {
		return fmt.Errorf("service cells keep private per-cell registries; -metrics/-trace do not combine with -serve")
	}
	request, err := cli.SpecByName(o.wf.Workload, o.sf.Workers)
	if err != nil {
		return err
	}
	cfg, err := o.sf.ServiceConfig(request)
	if err != nil {
		return err
	}
	topo, err := o.tf.Topology(core.DefaultMachine())
	if err != nil {
		return err
	}
	opts := []repro.Option{repro.WithTopology(topo), repro.WithSeed(o.wf.Seed), repro.WithParallelism(o.parallel)}
	if o.cache || o.cacheDir != "" {
		opts = append(opts, repro.WithCache(o.cacheDir))
	}
	s, err := repro.NewSession(opts...)
	if err != nil {
		return err
	}
	rep, err := s.Serve(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	if dir := s.CacheDir(); dir != "" {
		hits, misses := s.CacheStats()
		fmt.Fprintf(w, "cache: %d hit(s), %d miss(es) under %s\n", hits, misses, dir)
	}
	return nil
}

// machineMode maps shrun's -mode vocabulary onto the kernel's per-core
// disciplines.
func machineMode(mode string) (machine.Mode, error) {
	switch mode {
	case "solo":
		return machine.ModeSolo, nil
	case "symmetric":
		return machine.ModeSymmetric, nil
	default:
		return 0, fmt.Errorf("unknown mode %q for a many-core run (want solo or symmetric)", mode)
	}
}

// runMachine simulates the whole -cores topology under the
// deterministic cycle-quantum kernel and reports per-core plus
// machine-level statistics.
func runMachine(w io.Writer, o options) error {
	spec, err := cli.SpecByName(o.wf.Workload, o.wf.Instances)
	if err != nil {
		return err
	}
	md, err := machineMode(o.mode)
	if err != nil {
		return err
	}
	mach := core.DefaultMachine()
	mach.Seed = o.wf.Seed
	topo, err := o.tf.Topology(mach)
	if err != nil {
		return err
	}
	traceN := o.traceN
	if traceN == 0 && o.traceOut != "" {
		traceN = 1 << 16
	}
	rc := machine.RunConfig{
		Spec:    spec,
		Mode:    md,
		Tasks:   o.n,
		Exec:    exec.Config{HWAssist: o.hwAssist, HWAssistProbeCost: 2},
		Metrics: o.metrics,
		TraceN:  traceN,
	}
	m, err := machine.New(topo, rc)
	if err != nil {
		return err
	}
	st, err := m.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s/%s on %d cores: %d cycles (%.0f ns simulated), %d quanta of %d\n",
		o.wf.Workload, o.mode, topo.Cores, st.Cycles, core.NS(float64(st.Cycles)), st.Quanta, topo.Quantum)
	for _, cs := range st.Cores {
		fmt.Fprintf(w, "  core %d (seed %d): %d cycles, %.1f%% busy, %d retired, IPC %.2f\n",
			cs.Core, cs.Seed, cs.Exec.Cycles, cs.Exec.Efficiency()*100, cs.Exec.Retired, cs.Exec.IPC())
	}
	fmt.Fprintf(w, "  aggregate: %d retired, %.3f retired/cycle machine-wide\n",
		st.Aggregate.Retired, float64(st.Aggregate.Retired)/float64(st.Cycles))
	fmt.Fprintf(w, "  shared llc: %d hits, %d misses, %d queued (+%d cycles), peak bank load %d/quantum\n",
		st.LLC.Hits, st.LLC.Misses, st.LLC.Queued, st.LLC.QueueCycles, st.LLC.PeakBankLoad)
	fmt.Fprintf(w, "  results validated against host reference: ok\n")

	if o.metrics {
		reg := &metrics.Registry{}
		st.FillMetrics(reg)
		if m := reg; m != nil {
			fmt.Fprint(w, m.Snapshot().Table().String())
		}
	}
	if ring := m.TraceRing(0); ring != nil {
		if o.traceN > 0 {
			fmt.Fprintf(w, "\ntrace (core 0): %s\n", ring.Summary())
			if err := ring.Dump(w); err != nil {
				return err
			}
		}
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return err
			}
			if err := trace.WriteChromeTrace(f, ring.Events(), trace.ChromeTraceOptions{}); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "trace: core 0's %d event(s) exported to %s (load in Perfetto / chrome://tracing)\n",
				ring.Total(), o.traceOut)
		}
	}
	return nil
}

// execute runs one scenario under the selected discipline, observing
// into ob, and validates results against the host reference.
func execute(h *core.Harness, img *core.Image, part string, o options, ob observe) (exec.Stats, error) {
	cfg := exec.Config{HWAssist: o.hwAssist, HWAssistProbeCost: 2}
	if ob.ring != nil {
		cfg.Tracer = ob.ring
	}
	cfg.Metrics = ob.reg
	ex := h.NewExecutor(img, cfg)
	defer ex.CaptureMetrics()

	var st exec.Stats
	switch o.mode {
	case "solo":
		ts, err := h.Tasks(img, part, coro.Primary, 1)
		if err != nil {
			return st, err
		}
		if st, err = ex.RunSolo(ts.Tasks[0]); err != nil {
			return st, err
		}
		return st, ts.Validate()
	case "symmetric":
		ts, err := h.Tasks(img, part, coro.Primary, o.n)
		if err != nil {
			return st, err
		}
		if st, err = ex.RunSymmetric(ts.Tasks); err != nil {
			return st, err
		}
		return st, ts.Validate()
	case "dual":
		ts, err := h.Tasks(img, part, coro.Primary, o.scavengers+1)
		if err != nil {
			return st, err
		}
		primary := ts.Tasks[0]
		scavs := ts.Tasks[1:]
		for _, s := range scavs {
			s.Mode = coro.Scavenger
		}
		if st, err = ex.RunDualMode(primary, scavs); err != nil {
			return st, err
		}
		return st, ts.Validate()
	default:
		return st, fmt.Errorf("unknown mode %q", o.mode)
	}
}

// runSweep fans the scenario across seeds on the runner and summarizes.
// With tracing or metrics on, the sweep is forced sequential and one
// ring/registry pair is reused across jobs via Reset, so observation
// costs a constant number of allocations total; observed jobs also skip
// the result cache (a cached cell simulates nothing, so it would leave
// the counters empty).
func runSweep(w io.Writer, o options) error {
	if o.mode == "dual" && o.scavengers+1 > o.wf.Instances {
		return fmt.Errorf("dual mode needs %d instances (1 primary + %d scavengers); pass -instances", o.scavengers+1, o.scavengers)
	}
	ob := newObserve(o)
	observed := ob.ring != nil || ob.reg != nil
	if observed {
		o.parallel = 1
	}
	if o.tf.Cores > 1 && observed {
		return fmt.Errorf("many-core observability is per core and not summarized across a sweep; drop -seeds or -metrics/-trace")
	}
	spec, err := cli.SpecByName(o.wf.Workload, o.wf.Instances)
	if err != nil {
		return err
	}
	part := spec.Name()

	var cache *runner.Cache
	if o.cache || o.cacheDir != "" {
		if observed {
			return fmt.Errorf("-cache serves results without simulating, which leaves -metrics/-trace empty; drop one of them")
		}
		dir := o.cacheDir
		if dir == "" {
			if dir, err = runner.DefaultDir(); err != nil {
				return err
			}
		}
		if cache, err = runner.OpenCache(dir); err != nil {
			return err
		}
	}

	if o.tf.Cores > 1 {
		return runMachineSweep(w, o, spec, cache)
	}

	var jobs []runner.Job
	for i := 0; i < o.seeds; i++ {
		mach := core.DefaultMachine()
		mach.Seed = o.wf.Seed + int64(i)*7919
		jobs = append(jobs, runner.Job{
			// The ID carries every knob the closure reads, so equal IDs
			// really are the same computation and the cell is cacheable.
			ID: fmt.Sprintf("shrun/%s/%s/n=%d/scav=%d/hw=%t/inst=%d",
				o.wf.Workload, o.mode, o.n, o.scavengers, o.hwAssist, o.wf.Instances),
			Mach:      mach,
			Cacheable: !observed,
			Run: func(m core.Machine) (*experiments.Result, error) {
				h, err := core.NewHarness(m, spec)
				if err != nil {
					return nil, err
				}
				if ob.ring != nil {
					ob.ring.Reset()
				}
				if ob.reg != nil {
					ob.reg.Reset()
				}
				st, err := execute(h, h.Baseline(), part, o, ob)
				if err != nil {
					return nil, err
				}
				res := &experiments.Result{ID: "shrun", Metrics: map[string]float64{
					"cycles":     float64(st.Cycles),
					"efficiency": st.Efficiency(),
					"stall_frac": st.StallFraction(),
					"switches":   float64(st.Switches),
					"ipc":        st.IPC(),
				}}
				if o.mode == "dual" {
					res.Metrics["primary_latency"] = float64(st.PrimaryLatency)
					res.Metrics["episodes"] = float64(st.Episodes)
				}
				return res, nil
			},
		})
	}

	results, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: o.parallel, Cache: cache})
	if err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("%s/%s over %d seeds", o.wf.Workload, o.mode, o.seeds),
		"seed", "cycles", "efficiency", "IPC")
	samples := map[string][]float64{}
	for _, r := range results {
		m := r.Res.Metrics
		tb.Row(r.Job.Mach.Seed, uint64(m["cycles"]), m["efficiency"], m["ipc"])
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	fmt.Fprint(w, tb.String())
	cyc := stats.Summarize(samples["cycles"])
	eff := stats.Summarize(samples["efficiency"])
	fmt.Fprintf(w, "cycles %0.f ± %.0f, efficiency %.3f ± %.3f (all results validated)\n",
		cyc.Mean, cyc.Stddev, eff.Mean, eff.Stddev)
	if cache != nil {
		fmt.Fprintf(w, "cache: %d hit(s), %d miss(es) under %s\n", cache.Hits(), cache.Misses(), cache.Dir())
	}
	if ob.ring != nil && o.traceN > 0 {
		fmt.Fprintf(w, "trace (last seed): %s\n", ob.ring.Summary())
	}
	// The ring/registry hold the last seed's events and counters.
	return ob.finish(w, o, false)
}

// runMachineSweep fans a many-core run across seeds. Jobs carry the
// full topology, so the cache never confuses a many-core cell with a
// single-core one (or two topologies with each other).
func runMachineSweep(w io.Writer, o options, spec workloads.Spec, cache *runner.Cache) error {
	md, err := machineMode(o.mode)
	if err != nil {
		return err
	}
	baseTopo, err := o.tf.Topology(core.DefaultMachine())
	if err != nil {
		return err
	}
	rc := machine.RunConfig{Spec: spec, Mode: md, Tasks: o.n,
		Exec: exec.Config{HWAssist: o.hwAssist, HWAssistProbeCost: 2}}

	var jobs []runner.Job
	for i := 0; i < o.seeds; i++ {
		topo := baseTopo // fresh copy per iteration; &topo below must not alias
		topo.Machine.Seed = o.wf.Seed + int64(i)*7919
		jobs = append(jobs, runner.Job{
			ID: fmt.Sprintf("shrun/%s/%s/cores=%d/n=%d/hw=%t/inst=%d",
				o.wf.Workload, o.mode, o.tf.Cores, o.n, o.hwAssist, o.wf.Instances),
			Mach:      topo.Machine,
			Topo:      &topo,
			Cacheable: true,
			Run: func(m core.Machine) (*experiments.Result, error) {
				t := topo
				t.Machine = m
				mm, err := machine.New(t, rc)
				if err != nil {
					return nil, err
				}
				st, err := mm.Run()
				if err != nil {
					return nil, err
				}
				return &experiments.Result{ID: "shrun", Metrics: map[string]float64{
					"cycles":     float64(st.Cycles),
					"efficiency": float64(st.Aggregate.Busy) / float64(uint64(o.tf.Cores)*st.Cycles),
					"ipc":        float64(st.Aggregate.Retired) / float64(st.Cycles),
					"llc_misses": float64(st.LLC.Misses),
					"llc_queued": float64(st.LLC.Queued),
				}}, nil
			},
		})
	}

	results, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: o.parallel, Cache: cache})
	if err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("%s/%s on %d cores over %d seeds", o.wf.Workload, o.mode, o.tf.Cores, o.seeds),
		"seed", "cycles", "efficiency", "machine IPC", "llc misses")
	samples := map[string][]float64{}
	for _, r := range results {
		m := r.Res.Metrics
		tb.Row(r.Job.Mach.Seed, uint64(m["cycles"]), m["efficiency"], m["ipc"], uint64(m["llc_misses"]))
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	fmt.Fprint(w, tb.String())
	cyc := stats.Summarize(samples["cycles"])
	ipc := stats.Summarize(samples["ipc"])
	fmt.Fprintf(w, "cycles %0.f ± %.0f, machine IPC %.3f ± %.3f (all results validated)\n",
		cyc.Mean, cyc.Stddev, ipc.Mean, ipc.Stddev)
	if cache != nil {
		fmt.Fprintf(w, "cache: %d hit(s), %d miss(es) under %s\n", cache.Hits(), cache.Misses(), cache.Dir())
	}
	return nil
}
