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
// With -cores N the whole many-core machine runs under the cycle-quantum
// kernel, and every core observes into the same ring and registry:
// -metrics prints machine-wide totals, -trace N keeps the last N events
// across all cores, and -trace-out draws one process row per core.
//
// Usage:
//
//	shrun -workload hashjoin -mode symmetric -n 8
//	shrun -workload hashjoin -image hashjoin.instrumented.img -mode dual -scavengers 4
//	shrun -workload bst -mode dual -metrics -trace-out bst.trace.json
//	shrun -workload bst -mode symmetric -n 8 -seeds 5 -parallel 4 -cache
//	shrun -workload chase -mode symmetric -n 2 -cores 4 -metrics -trace-out chase.trace.json
//
// With -serve the tool switches to the open-loop service harness:
// requests arrive on their own simulated clock (Poisson by default) and
// the policy × offered-load grid renders throughput and p50/p99/p999
// sojourn tables. -metrics and -trace observe the whole sweep like any
// other run: the registry totals every cell, and -trace-out draws one
// process row per core:
//
//	shrun -serve -workload bst -arrivals poisson -rate 0.05,0.1,0.2 \
//	    -requests 2000 -policy agnostic,event-aware -parallel 4 -cache
//	shrun -serve -workload bst -rate 8 -requests 400 -cores 2 -metrics -trace-out serve.trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exec"
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
	wf        cli.WorkloadFlags
	tf        cli.TopologyFlags
	sf        cli.ServiceFlags
	sw        cli.SweepFlags
	imagePath string
	shape
	traceN   int
	traceOut string
	metrics  bool
}

// shape is the run-shape flag set: the closed-loop discipline, its
// coroutine count, and the dual-mode knobs. Each flag shapes some runs
// only (see checkShape).
type shape struct {
	mode       string
	n          int
	scavengers int
	hwAssist   bool
}

// shapeDefaults mirrors Register's defaults so checkShape can tell an
// untouched flag from a misused one.
var shapeDefaults = shape{mode: "solo", n: 1, scavengers: 3}

func main() {
	var o options
	parse(&o, os.Args[1:])

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "shrun:", err)
		os.Exit(1)
	}
}

// parse reads shrun's command line into o.
func parse(o *options, args []string) {
	fs := flag.NewFlagSet("shrun", flag.ExitOnError)
	cli.InstallUsage(fs)
	o.wf.Register(fs)
	o.tf.Register(fs)
	o.sf.Register(fs)
	o.sw.Register(fs)
	fs.StringVar(&o.imagePath, "image", "", "instrumented image from shinstr (default: uninstrumented baseline)")
	d := shapeDefaults
	fs.StringVar(&o.mode, "mode", d.mode, "solo | symmetric | dual")
	fs.IntVar(&o.n, "n", d.n, "coroutines to run (symmetric)")
	fs.IntVar(&o.scavengers, "scavengers", d.scavengers, "scavenger coroutines (dual mode; instance 0 is the primary)")
	fs.BoolVar(&o.hwAssist, "hwassist", d.hwAssist, "enable the §4.1 cache-presence probe at primary yields")
	fs.IntVar(&o.traceN, "trace", 0, "retain and dump the last N scheduling events (across all cores with -cores)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write retained trace events as Chrome trace-event JSON to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print the cycle-domain observability counters after the run")
	fs.Parse(args)
	cli.NoArgs(fs)
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

// observed reports whether the run observes anything.
func (ob observe) observed() bool { return ob.ring != nil || ob.reg != nil }

// refuseCache is every sweep's one check that -cache and observation
// stay apart: a cached cell simulates nothing, so it would leave the
// counters and the ring empty.
func (ob observe) refuseCache(o options) error {
	if ob.observed() && o.sw.Cached() {
		return fmt.Errorf("-cache serves results without simulating, which leaves -metrics/-trace empty; drop one of them")
	}
	return nil
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
	if o.traceOut == "" {
		return nil
	}
	if err := cli.WriteFile(o.traceOut, func(f io.Writer) error {
		return trace.WriteChromeTrace(f, ob.ring.Events(), trace.ChromeTraceOptions{})
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d event(s) exported to %s (load in Perfetto / chrome://tracing)\n",
		ob.ring.Total(), o.traceOut)
	return nil
}

// config is the executor configuration every run builds on: -hwassist,
// observing into ob.
func (ob observe) config(o options) exec.Config {
	cfg := exec.Config{HWAssist: o.hwAssist, Metrics: ob.reg}
	if ob.ring != nil {
		cfg.Tracer = ob.ring
	}
	return cfg
}

func run(w io.Writer, o options) error {
	if err := o.tf.Check(); err != nil {
		return err
	}
	if err := o.sf.Check(); err != nil {
		return err
	}
	if err := o.sw.Check(); err != nil {
		return err
	}
	if o.n < 1 {
		return fmt.Errorf("-n must be ≥ 1 (got %d)", o.n)
	}
	if o.scavengers < 0 {
		return fmt.Errorf("-scavengers must be ≥ 0 (got %d)", o.scavengers)
	}
	if err := o.checkShape(); err != nil {
		return err
	}
	if o.sf.Serve {
		return runServe(w, o)
	}
	if o.tf.Cores > 1 {
		// Upfront validation: many-core runs rebuild per-core baseline
		// scenarios.
		if o.imagePath != "" {
			return fmt.Errorf("-image is a single-scenario binary; many-core runs rebuild per-core baselines, drop -cores or -image")
		}
		if o.mode == "dual" {
			return fmt.Errorf("dual mode is a single-core discipline; use -mode solo or symmetric with -cores")
		}
	}
	if o.mode == "dual" && o.scavengers+1 > o.wf.Instances {
		return fmt.Errorf("dual mode needs %d instances (1 primary + %d scavengers); pass -instances", o.scavengers+1, o.scavengers)
	}
	if o.sw.Seeds > 1 {
		if o.imagePath != "" {
			return fmt.Errorf("-seeds rebuilds the scenario per seed, which invalidates a fixed -image; drop one of them")
		}
		return runSweep(w, o)
	}
	if o.tf.Cores > 1 {
		return runMachine(w, o)
	}
	h, part, err := o.wf.Harness()
	if err != nil {
		return err
	}
	img := h.Baseline()
	if o.imagePath != "" {
		prog, err := cli.ReadImage(o.imagePath)
		if err != nil {
			return err
		}
		// Entry points travel in the symbol table ("<part>.main").
		entries := prog.Entries()
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

// checkShape refuses a run-shape flag the run never reads: -mode
// outside closed-loop runs, -n outside -mode symmetric, -scavengers and
// -hwassist outside -mode dual. Like cli.ServiceFlags.Check it counts
// both the registered default and the zero value (programmatic callers
// that never touch the flag) as untouched.
func (o options) checkShape() error {
	run, closed := "-mode "+o.mode, !o.sf.Serve
	if !closed {
		run = "-serve"
	}
	for _, f := range []struct {
		flag           string
		val, def, zero any
		read           bool
		readers        string
	}{
		{"mode", o.mode, shapeDefaults.mode, "", closed, "closed-loop"},
		{"n", o.n, shapeDefaults.n, 0, closed && o.mode == "symmetric", "-mode symmetric"},
		{"scavengers", o.scavengers, shapeDefaults.scavengers, 0, closed && o.mode == "dual", "-mode dual"},
		{"hwassist", o.hwAssist, shapeDefaults.hwAssist, false, closed && o.mode == "dual", "-mode dual"},
	} {
		if !f.read && f.val != f.def && f.val != f.zero {
			return fmt.Errorf("-%s %v shapes %s runs only, not this %s run", f.flag, f.val, f.readers, run)
		}
	}
	return nil
}

// runServe drives the open-loop service harness: requests built from
// -workload (one instance = one request, -workers in flight) arrive on
// their own clock and are served under every -policy at every -rate,
// through the canonical Session.Serve sweep — cells fan out on the
// runner's worker pool and are served from the content-addressed cache
// when -cache is set. With -cores N each cell load-balances its one
// arrival stream across N per-core policy engines contending for the
// shared LLC under the cycle-quantum kernel. -metrics and -trace observe
// every core of every cell through the session's one registry and ring;
// the observed sweep runs its cells in grid order, uncached.
func runServe(w io.Writer, o options) error {
	if o.imagePath != "" {
		return fmt.Errorf("-serve rebuilds the request scenario per cell; drop -image")
	}
	if o.sw.Seeds > 1 {
		return fmt.Errorf("-serve sweeps offered load, not seeds; drop -seeds")
	}
	ob := newObserve(o)
	if err := ob.refuseCache(o); err != nil {
		return err
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
	exCfg := ob.config(o)
	opts := []repro.Option{repro.WithTopology(topo), repro.WithSeed(o.wf.Seed), repro.WithParallelism(o.sw.Parallel),
		repro.WithObservability(repro.ObservabilityConfig{Tracer: exCfg.Tracer, Metrics: exCfg.Metrics})}
	if o.sw.Cached() {
		opts = append(opts, repro.WithCache(o.sw.CacheDir))
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
	return ob.finish(w, o, true)
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
// machine-level statistics. Every core observes into the one ring and
// registry, so -metrics prints machine-wide totals and the trace holds
// every core's events.
func runMachine(w io.Writer, o options) error {
	spec, err := cli.SpecByName(o.wf.Workload, o.wf.Instances)
	if err != nil {
		return err
	}
	mach := core.DefaultMachine()
	mach.Seed = o.wf.Seed
	ob := newObserve(o)
	m, topo, err := newMachine(o, spec, mach, ob)
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
	return ob.finish(w, o, true)
}

// newMachine builds the -cores topology over mach, every core running
// spec under -mode and observing into ob.
func newMachine(o options, spec workloads.Spec, mach core.Machine, ob observe) (*machine.Machine, machine.Topology, error) {
	md, err := machineMode(o.mode)
	if err != nil {
		return nil, machine.Topology{}, err
	}
	topo, err := o.tf.Topology(mach)
	if err != nil {
		return nil, topo, err
	}
	m, err := machine.New(topo, machine.RunConfig{Spec: spec, Mode: md, Tasks: o.n, Exec: ob.config(o)})
	return m, topo, err
}

// execute runs one scenario under the selected discipline, observing
// into ob, and validates results against the host reference.
func execute(h *core.Harness, img *core.Image, part string, o options, ob observe) (exec.Stats, error) {
	cfg := ob.config(o)
	switch o.mode {
	case "solo":
		return h.RunSolo(img, part, cfg)
	case "symmetric":
		return h.RunSymmetric(img, part, o.n, cfg)
	case "dual":
		return h.RunDualMode(img, part, part, o.scavengers, cfg)
	default:
		return exec.Stats{}, fmt.Errorf("unknown mode %q", o.mode)
	}
}

// runSweep fans the scenario across seeds on the runner and summarizes;
// with -cores N each seed runs the whole machine. With tracing or
// metrics on, the sweep is forced sequential and one ring/registry pair
// is reused across jobs via Reset, so observation costs a constant
// number of allocations total; refuseCache keeps the result cache
// closed then (a cached cell simulates nothing, so it would leave the
// counters empty). Many-core jobs key on their topology, so the cache
// never confuses a many-core cell with a single-core one (or two
// topologies with each other).
func runSweep(w io.Writer, o options) error {
	ob := newObserve(o)
	if err := ob.refuseCache(o); err != nil {
		return err
	}
	if ob.observed() {
		o.sw.Parallel = 1
	}
	spec, err := cli.SpecByName(o.wf.Workload, o.wf.Instances)
	if err != nil {
		return err
	}
	cache, err := o.sw.OpenCache()
	if err != nil {
		return err
	}

	// The ID carries every knob the cell reads, so equal IDs really
	// are the same computation and the cell is cacheable.
	id := fmt.Sprintf("shrun/%s/%s/n=%d/scav=%d/hw=%t/inst=%d",
		o.wf.Workload, o.mode, o.n, o.scavengers, o.hwAssist, o.wf.Instances)
	cell := seedRun
	where, cols := "", []string{"seed", "cycles", "efficiency", "IPC"}
	if o.tf.Cores > 1 {
		id = fmt.Sprintf("shrun/%s/%s/cores=%d/n=%d/inst=%d",
			o.wf.Workload, o.mode, o.tf.Cores, o.n, o.wf.Instances)
		cell = seedMachine
		where, cols = fmt.Sprintf(" on %d cores", o.tf.Cores), append(cols, "llc misses")
	}
	var jobs []runner.Job[seedRow]
	for i := 0; i < o.sw.Seeds; i++ {
		mach := core.DefaultMachine()
		mach.Seed = o.wf.Seed + int64(i)*runner.SeedStride
		job := runner.Job[seedRow]{ID: id, Mach: mach,
			Run: func(m core.Machine) (seedRow, error) {
				if ob.ring != nil {
					ob.ring.Reset()
				}
				if ob.reg != nil {
					ob.reg.Reset()
				}
				return cell(o, spec, m, ob)
			}}
		if o.tf.Cores > 1 {
			topo, err := o.tf.Topology(mach)
			if err != nil {
				return err
			}
			job.Key = topo
		}
		jobs = append(jobs, job)
	}

	results, err := runner.Run(context.Background(), jobs, runner.Options[seedRow]{Parallelism: o.sw.Parallel, Cache: cache})
	if err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("%s/%s%s over %d seeds", o.wf.Workload, o.mode, where, o.sw.Seeds), cols...)
	var cycles, effs []float64
	for _, r := range results {
		row := []any{r.Job.Mach.Seed, r.Res.Cycles, r.Res.Efficiency, r.Res.IPC}
		if o.tf.Cores > 1 {
			row = append(row, r.Res.LLCMisses)
		}
		tb.Row(row...)
		cycles = append(cycles, float64(r.Res.Cycles))
		effs = append(effs, r.Res.Efficiency)
	}
	fmt.Fprint(w, tb.String())
	cyc, eff := stats.Summarize(cycles), stats.Summarize(effs)
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

// seedRow is one sweep cell's outcome: the columns the seed table and
// its summary print (LLCMisses on many-core cells only).
type seedRow struct {
	Cycles          uint64
	Efficiency, IPC float64
	LLCMisses       uint64
}

// seedRun is one single-core sweep cell: the baseline scenario on m.
func seedRun(o options, spec workloads.Spec, m core.Machine, ob observe) (seedRow, error) {
	h, err := core.NewHarness(m, spec)
	if err != nil {
		return seedRow{}, err
	}
	st, err := execute(h, h.Baseline(), spec.Name(), o, ob)
	if err != nil {
		return seedRow{}, err
	}
	return seedRow{Cycles: st.Cycles, Efficiency: st.Efficiency(), IPC: st.IPC()}, nil
}

// seedMachine is one many-core sweep cell: the -cores machine over m.
func seedMachine(o options, spec workloads.Spec, m core.Machine, ob observe) (seedRow, error) {
	mm, _, err := newMachine(o, spec, m, ob)
	if err != nil {
		return seedRow{}, err
	}
	st, err := mm.Run()
	if err != nil {
		return seedRow{}, err
	}
	return seedRow{
		Cycles:     st.Cycles,
		Efficiency: float64(st.Aggregate.Busy) / float64(uint64(o.tf.Cores)*st.Cycles),
		IPC:        float64(st.Aggregate.Retired) / float64(st.Cycles),
		LLCMisses:  st.LLC.Misses,
	}, nil
}
