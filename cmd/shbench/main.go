// Command shbench regenerates the evaluation: Figure 1 and experiments
// E1–E21 (see DESIGN.md §3 for the per-experiment index and EXPERIMENTS.md
// for paper-vs-measured discussion). Sweeps fan out over the parallel
// runner; output is byte-identical for tables and metrics at any
// parallelism, and a warm result cache skips already-computed cells.
//
// Usage:
//
//	shbench                        # run everything
//	shbench -exp F1,E7             # selected experiments
//	shbench -list                  # enumerate experiment IDs
//	shbench -metrics               # also dump flat metrics (machine-readable)
//	shbench -seeds 5 -parallel 8   # 5-seed stability sweep on 8 workers
//	shbench -cache -progress       # cache results, report live progress
//	shbench -cpuprofile cpu.out    # profile the run (go tool pprof cpu.out)
//	shbench -memprofile mem.out    # heap profile written on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
	_ "repro/internal/service" // registers E21 (open-loop multi-core serving)
	"repro/internal/stats"
	"repro/internal/workloads"
)

// options collects everything run needs, so tests can drive it without
// the process-global flag set.
type options struct {
	exp      string
	tf       cli.TopologyFlags
	metrics  bool
	seed     int64
	format   string
	seeds    int
	parallel int
	progress bool
	cache    bool
	cacheDir string
}

func main() {
	fs := flag.NewFlagSet("shbench", flag.ExitOnError)
	cli.InstallUsage(fs)
	var o options
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment IDs, or 'all'")
	o.tf.Register(fs)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	fs.BoolVar(&o.metrics, "metrics", false, "dump flat metrics after each table")
	fs.Int64Var(&o.seed, "seed", 0, "override the scenario seed (0 keeps the default)")
	fs.StringVar(&o.format, "format", "text", "text | md (markdown tables for reports)")
	fs.IntVar(&o.seeds, "seeds", 1, "repeat each experiment across N seeds and summarize metric stability")
	fs.IntVar(&o.parallel, "parallel", 1, "worker goroutines for the sweep (0 = GOMAXPROCS)")
	fs.BoolVar(&o.progress, "progress", false, "report per-job completion on stderr")
	fs.BoolVar(&o.cache, "cache", false, "serve and store results in the content-addressed cache")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "cache directory (implies -cache; default ~/.cache/softhide)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "shbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(context.Background(), os.Stdout, os.Stderr, o)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "shbench:", merr)
			os.Exit(1)
		}
		runtime.GC() // flush unreached objects so the profile shows live heap
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintln(os.Stderr, "shbench:", werr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w, ew io.Writer, o options) error {
	if o.format != "text" && o.format != "md" {
		return fmt.Errorf("unknown format %q (want text or md)", o.format)
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be ≥ 1 (got %d)", o.seeds)
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallel must be ≥ 0 (got %d)", o.parallel)
	}
	if err := o.tf.Check(); err != nil {
		return err
	}
	mach := core.DefaultMachine()
	if o.seed != 0 {
		mach.Seed = o.seed
	}
	if o.tf.Cores > 1 {
		// Many-core mode: E1–E20 are single-core experiments, so -cores
		// selects the machine-scaling report instead.
		if o.exp != "all" {
			return fmt.Errorf("-cores runs the many-core scaling report; the single-core experiments of -exp do not take a topology")
		}
		if o.seeds > 1 {
			return fmt.Errorf("-seeds is not summarized for the scaling report; drop one of -cores/-seeds")
		}
		return runScaling(ctx, w, ew, o, mach)
	}

	var ids []string
	if o.exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(o.exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	// Expand experiment × seed jobs upfront: a mistyped ID fails here,
	// before any simulation starts, naming every valid choice.
	jobs, err := runner.Jobs(ids, mach, o.seeds)
	if err != nil {
		return err
	}

	var cache *runner.Cache
	if o.cache || o.cacheDir != "" {
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

	fmt.Fprintf(w, "softhide evaluation — %d experiment(s), seed %d\n", len(ids), mach.Seed)
	fmt.Fprintf(w, "machine: L1 %dKiB / L2 %dKiB / L3 %dKiB, latencies %d/%d/%d/%d cycles, switch %d cycles\n\n",
		mach.Mem.L1Size>>10, mach.Mem.L2Size>>10, mach.Mem.L3Size>>10,
		mach.Mem.LatL1, mach.Mem.LatL2, mach.Mem.LatL3, mach.Mem.LatDRAM,
		mach.Switch.FullCost())

	opts := runner.Options{Parallelism: o.parallel, Cache: cache}
	if o.progress {
		opts.Progress = func(done, total int, r runner.Result) {
			state := r.Wall.Round(time.Millisecond).String()
			if r.CacheHit {
				state = "cached"
			}
			if r.Err != nil {
				state = "error"
			}
			fmt.Fprintf(ew, "progress: %d/%d %s seed=%d (%s)\n", done, total, r.Job.ID, r.Job.Mach.Seed, state)
		}
	}

	// Jobs arrive in presentation order, experiment-major: the o.seeds
	// results for one experiment are consecutive. Accumulate each group
	// and render it when its last seed lands, so output streams while
	// later experiments are still running.
	var group []runner.Result
	err = runner.Stream(ctx, jobs, opts, func(r runner.Result) error {
		group = append(group, r)
		if len(group) < o.seeds {
			return nil
		}
		if err := present(w, o, group); err != nil {
			return err
		}
		group = group[:0]
		return nil
	})
	if err != nil {
		return err
	}
	if cache != nil {
		fmt.Fprintf(ew, "cache: %d hit(s), %d miss(es) under %s\n", cache.Hits(), cache.Misses(), cache.Dir())
	}
	return nil
}

// runScaling runs the many-core scaling report: the canonical pointer
// chase on 1, 2, 4, … up to -cores cores over the shared LLC, fanned
// out on the runner (each core count is one cacheable job whose key
// carries the full topology).
func runScaling(ctx context.Context, w, ew io.Writer, o options, mach core.Machine) error {
	var counts []int
	for c := 1; c < o.tf.Cores; c *= 2 {
		counts = append(counts, c)
	}
	counts = append(counts, o.tf.Cores)

	spec := workloads.PointerChase{Nodes: 8192, Hops: 3000, Instances: 4}
	rc := machine.RunConfig{Spec: spec, Mode: machine.ModeSymmetric, Exec: exec.Config{}}

	var jobs []runner.Job
	for _, c := range counts {
		tf := o.tf
		tf.Cores = c
		if c == 1 {
			tf.LLCBanks, tf.LLCSize = 0, 0 // shared-LLC overrides do not apply single-core
		}
		topo, err := tf.Topology(mach)
		if err != nil {
			return err
		}
		jobs = append(jobs, runner.Job{
			ID:        fmt.Sprintf("machine-scaling/%s/symmetric/cores=%d", spec.Name(), c),
			Mach:      mach,
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
				return &experiments.Result{ID: "machine-scaling", Metrics: map[string]float64{
					"cycles":     float64(st.Cycles),
					"retired":    float64(st.Aggregate.Retired),
					"ipc":        float64(st.Aggregate.Retired) / float64(st.Cycles),
					"llc_misses": float64(st.LLC.Misses),
					"llc_queued": float64(st.LLC.Queued),
				}}, nil
			},
		})
	}

	var cache *runner.Cache
	if o.cache || o.cacheDir != "" {
		dir := o.cacheDir
		if dir == "" {
			var err error
			if dir, err = runner.DefaultDir(); err != nil {
				return err
			}
		}
		var err error
		if cache, err = runner.OpenCache(dir); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "softhide many-core scaling — %s, symmetric, seed %d\n\n", spec.Name(), mach.Seed)
	results, err := runner.Run(ctx, jobs, runner.Options{Parallelism: o.parallel, Cache: cache})
	if err != nil {
		return err
	}
	tb := stats.NewTable("aggregate throughput vs core count",
		"cores", "cycles", "retired", "machine IPC", "llc misses", "llc queued")
	base := results[0].Res.Metrics["ipc"]
	for i, r := range results {
		m := r.Res.Metrics
		tb.Row(counts[i], uint64(m["cycles"]), uint64(m["retired"]), m["ipc"], uint64(m["llc_misses"]), uint64(m["llc_queued"]))
	}
	fmt.Fprint(w, tb.String())
	last := results[len(results)-1].Res.Metrics["ipc"]
	fmt.Fprintf(w, "speedup at %d cores: %.2fx aggregate throughput over 1 core\n",
		o.tf.Cores, last/base)
	if cache != nil {
		fmt.Fprintf(ew, "cache: %d hit(s), %d miss(es) under %s\n", cache.Hits(), cache.Misses(), cache.Dir())
	}
	return nil
}

// present renders one experiment's seed group: the first seed's tables,
// optional metrics, optional cross-seed stability, and the wall line.
func present(w io.Writer, o options, group []runner.Result) error {
	first := group[0].Res
	if o.format == "md" {
		fmt.Fprint(w, first.Markdown())
	} else {
		fmt.Fprint(w, first.String())
	}
	if o.metrics {
		fmt.Fprint(w, first.MetricsString())
	}
	if o.seeds > 1 {
		stability(w, group)
	}
	var wall time.Duration
	cached := true
	for _, r := range group {
		wall += r.Wall
		cached = cached && r.CacheHit
	}
	if cached {
		fmt.Fprintf(w, "(cached)\n\n")
	} else {
		fmt.Fprintf(w, "(%s wall time)\n\n", wall.Round(time.Millisecond))
	}
	return nil
}

// stability summarizes the spread of each metric across the group's
// seeds, exposing any seed-overfit conclusions.
func stability(w io.Writer, group []runner.Result) {
	samples := map[string][]float64{}
	for _, r := range group {
		for k, v := range r.Res.Metrics {
			samples[k] = append(samples[k], v)
		}
	}
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "metric stability over %d seeds (mean ± stddev):\n", len(group))
	for _, k := range keys {
		s := stats.Summarize(samples[k])
		fmt.Fprintf(w, "  %-28s %12.4f ± %.4f\n", k, s.Mean, s.Stddev)
	}
}
