// Package repro is softhide: a complete implementation and evaluation of
// "Out of Hand for Hardware? Within Reach for Software!" (Luo, Fu, Amaro,
// Ousterhout, Ratnasamy, Shenker — HotOS 2023), which proposes hiding
// 10–100 ns CPU-stall events (L2/L3 cache misses) in software by combining
// light-weight coroutines with sample-based profiling.
//
// The system is built on a deterministic cycle-level machine simulator
// (virtual ISA, three-level cache hierarchy with in-flight fill tracking,
// in-order core with PEBS/LBR-style sampling hooks), because the paper's
// mechanism needs hardware facilities — performance counters, binary
// rewriting, nanosecond-scale context switches — that a pure-Go process
// cannot touch directly. Every quantity the paper reasons about (switch
// cost, miss latency, stall cycles, sampling noise) is a first-class
// simulated quantity.
//
// The entry point is a Session, which owns the machine description and
// execution policy (parallelism, result cache, tracing). The pipeline
// follows the paper's three steps:
//
//	s, _ := repro.NewSession()
//	h, img, _ := s.Pipeline("chase", repro.DefaultPipelineOptions(), // steps (i)+(ii)
//	    repro.PointerChase{Nodes: 8192, Hops: 3000, Instances: 8})
//	ts, _ := h.Tasks(img, "chase", repro.Primary, 8)
//	stats, _ := s.NewExecutor(h, img, repro.ExecConfig{}).RunSymmetric(ts.Tasks) // step (iii)
//
// Dual-mode asymmetric concurrency (§3.3) runs one latency-sensitive
// primary against scavenger coroutines:
//
//	st, _ := s.NewExecutor(h, img, repro.ExecConfig{}).RunDualMode(primary, scavengers)
//
// Experiment sweeps fan out over a deterministic parallel runner
// (results return in presentation order at any parallelism, cached
// cells are served without simulating):
//
//	s, _ = repro.NewSession(repro.WithParallelism(8), repro.WithCache(""))
//	results, _ := s.RunAll(context.Background()) // all of F1, E1–E21
//
// Static verification guards against silent miscompiles in the binary
// rewriter. WithVerification makes the session self-checking: every
// image Pipeline produces is verified by the internal/check analyses
// (yield save-mask liveness, branch-target closure, call/ret
// discipline, insertion reachability), and RunAll/Sweep gate on a
// one-time toolchain preflight. The same checks run standalone over
// image files via cmd/shcheck:
//
//	s, _ = repro.NewSession(repro.WithVerification())
//	_, img, err := s.Pipeline("chase", repro.DefaultPipelineOptions(), spec)
//	// err is a *repro.CheckError listing every diagnostic if the
//	// rewritten binary is unsound; Session.VerifyImage re-checks any
//	// instrumented image on demand.
//
// Observability — tracing, the cycle-domain metrics registry and Chrome
// trace export — is configured in one option and threaded into every
// executor the session builds:
//
//	ring := repro.NewTraceRing(4096)
//	reg := &repro.MetricsRegistry{}
//	s, _ = repro.NewSession(repro.WithObservability(repro.ObservabilityConfig{
//	    Tracer: ring, Metrics: reg,
//	}))
//	// ... run work ...
//	snap := s.MetricsSnapshot()            // counters + histograms
//	_ = s.ExportTrace(f, repro.ChromeTraceOptions{}) // Perfetto-loadable JSON
//
// Execution speed comes from a three-tier retire engine: per-instruction
// stepping, a basic-block fast path, and a superblock trace tier that
// chains hot blocks across predicted-taken branches (profile-guided when
// an LBR edge profile exists, static heuristics otherwise). Superblocks
// are on by default and bit-identical to stepping (the per-executor
// ExecConfig.DisableSuperblocks is the A/B switch the benchmark's
// alu-tiers workload uses). Attaching an observer (tracing, PEBS
// sampling) bypasses both fast tiers automatically — profiled runs
// always see the full per-instruction event stream.
//
// Many-core simulation is cut around Topology: each simulated core owns
// a private L1/L2 and runs on its own goroutine; all cores share a
// banked LLC + DRAM with bandwidth/MSHR contention; a cycle-quantum
// kernel keeps the whole machine deterministic (results are
// byte-identical across GOMAXPROCS settings and repeated runs):
//
//	s, _ = repro.NewSession(repro.WithTopology(repro.DefaultTopology(8)))
//	st, _ := s.RunMachine(repro.MachineRun{
//	    Spec: repro.PointerChase{Nodes: 8192, Hops: 3000, Instances: 4},
//	    Mode: repro.MachineSymmetric,
//	})
//	// st.Cores[i] per-core, st.Aggregate + st.LLC machine-wide
//
// Open-loop service simulation — the datacenter question the paper
// opens with — is cut around Session.Serve: requests arrive on their
// own clock (Poisson, uniform or bursty, in requests per simulated µs),
// pass a bounded admission queue with drop/shed accounting, and are
// served under a policy × offered-load grid whose per-cell sojourn
// distributions (p50/p99/p999) render as throughput-vs-tail-latency
// tables. Serve is the canonical way to measure tail latency; the
// closed-loop Harness.Tasks + RunSymmetric/RunDualMode surface above is
// the low-level building block it schedules on:
//
//	rep, _ := s.Serve(ctx, repro.ServiceConfig{
//	    Arrivals: repro.ArrivalSpec{Kind: repro.ArrivalPoisson},
//	    Rates:    []float64{0.05, 0.1, 0.2}, // offered load sweep
//	    Policies: []repro.ServicePolicy{repro.PolicyAgnostic, repro.PolicyEventAware},
//	})
//	fmt.Print(rep) // per-policy tables + cross-policy p99 comparison
//
// (repro.LoadSweep(ctx, cfg, opts...) is the one-call form.) Cells fan
// out over the session's worker pool and result cache exactly like
// experiment sweeps, and reports are byte-identical at any GOMAXPROCS.
//
// cmd/shbench regenerates every table and figure of the evaluation (see
// DESIGN.md and EXPERIMENTS.md); go run ./bench is the only timed
// instrument (see bench/README.md). The free functions Session subsumed
// are gone.
// Migration:
//
//	DefaultMachine()        → DefaultTopology(1).Machine (removed)
//	Experiments()           → Session.ExperimentIDs() + Session.RunAll(ctx) (removed)
//	LookupExperiment(id)    → Session.Run(ctx, id) (removed)
//	ExperimentIDs()         → Session.ExperimentIDs() (removed)
package repro
