package repro

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Session is the package's cohesive entry point: it owns the machine
// topology, experiment lookup and execution policy (parallelism,
// result cache, tracing), and hands out harnesses bound to that
// machine. A zero-configuration session runs the single-core reference
// machine sequentially:
//
//	s, _ := repro.NewSession()
//	results, _ := s.RunAll(context.Background())
//
// A sweep session fans out over a worker pool and caches results:
//
//	s, _ := repro.NewSession(
//	    repro.WithSeed(42),
//	    repro.WithParallelism(8),
//	    repro.WithCache(""),        // "" = ~/.cache/softhide
//	)
//
// A many-core session simulates the whole topology in one run:
//
//	s, _ := repro.NewSession(repro.WithTopology(repro.DefaultTopology(8)))
//	st, _ := s.RunMachine(repro.MachineRun{Spec: repro.PointerChase{...}})
type Session struct {
	topo        machine.Topology
	parallelism int
	cache       *runner.Cache
	obs         ObservabilityConfig
	verify      bool

	preflightOnce sync.Once
	preflightErr  error
}

// Option configures a Session under construction.
type Option func(*sessionConfig)

type sessionConfig struct {
	topo        machine.Topology
	seed        *int64
	parallelism int
	cacheDir    *string
	obs         ObservabilityConfig
	verify      bool
}

// WithSeed overrides the scenario seed (applied after WithTopology, to
// the per-core template's seed).
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.seed = &seed }
}

// WithParallelism bounds the worker pool used by RunAll and Sweep.
// n < 1 selects GOMAXPROCS; the default is 1 (fully sequential).
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.parallelism = n }
}

// WithCache enables the content-addressed result cache in dir; an empty
// dir selects the conventional location (~/.cache/softhide).
func WithCache(dir string) Option {
	return func(c *sessionConfig) { c.cacheDir = &dir }
}

// WithVerification makes the session self-checking against silent
// miscompiles: every image Pipeline instruments is statically verified
// (internal/check — liveness of yield save masks, branch-target closure,
// call/ret discipline, insertion reachability) and rejected if unsound,
// and RunAll/Sweep refuse to dispatch experiments until a one-time
// preflight has proven the instrumentation toolchain sound on a
// reference scenario. Verification is static analysis over the rewritten
// binary; it adds milliseconds, not simulation time.
func WithVerification() Option {
	return func(c *sessionConfig) { c.verify = true }
}

// ObservabilityConfig bundles the session's whole observation surface:
// scheduling-event tracing, the cycle-domain metrics registry, and the
// sink trace exports are written to. Every field is optional; the zero
// value observes nothing and costs one nil check per emission site.
type ObservabilityConfig struct {
	// Tracer receives executor scheduling events; a *TraceRing here also
	// feeds ExportTrace.
	Tracer Tracer
	// Metrics, when non-nil, is threaded into every executor the session
	// builds: the runtime bumps hide-episode histograms inline and
	// harvests cache/core/sampler counters after runs. Inspect it with
	// Session.MetricsSnapshot.
	Metrics *MetricsRegistry
	// TraceSink, when non-nil, is where Session.ExportTrace writes
	// Chrome trace-event JSON when called with a nil writer (e.g. a file
	// the CLI opened for -trace-out).
	TraceSink io.Writer
}

// WithObservability installs the session's observation surface — tracer,
// metrics registry and trace-export sink — in one option:
//
//	ring := repro.NewTraceRing(4096)
//	reg := &repro.MetricsRegistry{}
//	s, _ := repro.NewSession(repro.WithObservability(repro.ObservabilityConfig{
//	    Tracer:  ring,
//	    Metrics: reg,
//	}))
//
// NewExecutor wires Tracer and Metrics into every executor the session
// builds (unless the ExecConfig already carries its own).
func WithObservability(o ObservabilityConfig) Option {
	return func(c *sessionConfig) { c.obs = o }
}

// NewSession builds a session over the reference machine, then applies
// the options in order.
func NewSession(opts ...Option) (*Session, error) {
	cfg := sessionConfig{topo: machine.Topology{Cores: 1, Machine: core.DefaultMachine()}, parallelism: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.seed != nil {
		cfg.topo.Machine.Seed = *cfg.seed
	}
	s := &Session{topo: cfg.topo, parallelism: cfg.parallelism, obs: cfg.obs, verify: cfg.verify}
	if cfg.cacheDir != nil {
		dir := *cfg.cacheDir
		if dir == "" {
			var err error
			if dir, err = runner.DefaultDir(); err != nil {
				return nil, err
			}
		}
		cache, err := runner.OpenCache(dir)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	return s, nil
}

// CacheDir returns the result-cache directory, or "" when caching is
// disabled.
func (s *Session) CacheDir() string {
	if s.cache == nil {
		return ""
	}
	return s.cache.Dir()
}

// CacheStats reports result-cache lookups since the session opened the
// cache: hits were served without simulating, misses were computed and
// stored. Both are zero when caching is disabled.
func (s *Session) CacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Hits(), s.cache.Misses()
}

// NewHarness composes workload specs over the session's per-core
// machine template.
func (s *Session) NewHarness(specs ...workloads.Spec) (*Harness, error) {
	return core.NewHarness(s.topo.Machine, specs...)
}

// NewExecutor builds an executor over an image, injecting the session's
// tracer and metrics registry when the config does not already carry
// its own.
func (s *Session) NewExecutor(h *Harness, img *Image, cfg ExecConfig) *Executor {
	if cfg.Tracer == nil {
		cfg.Tracer = s.obs.Tracer
	}
	if cfg.Metrics == nil {
		cfg.Metrics = s.obs.Metrics
	}
	return h.NewExecutor(img, cfg)
}

// ExperimentIDs lists every registered experiment in presentation order.
func (s *Session) ExperimentIDs() []string { return experiments.IDs() }

// Run executes one experiment on the session's machine (consulting the
// cache when enabled).
func (s *Session) Run(ctx context.Context, id string) (*ExperimentResult, error) {
	results, err := s.RunAll(ctx, id)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll executes the named experiments — all of them when ids is
// empty — on the session's machine, fanned out over the session's
// worker pool, and returns results in presentation order regardless of
// parallelism. Cached cells are served without simulating.
func (s *Session) RunAll(ctx context.Context, ids ...string) ([]*ExperimentResult, error) {
	rs, err := s.Sweep(ctx, ids, 1)
	if err != nil {
		return nil, err
	}
	out := make([]*ExperimentResult, len(rs))
	for i, r := range rs {
		out[i] = r.Res
	}
	return out, nil
}

// RunReport is one job's outcome in a Sweep: the experiment result plus
// execution metadata (wall clock, cache hit).
type RunReport = runner.Result

// Sweep runs every experiment × seed cell (seeds ≥ 1; seed i runs on
// Seed + i*7919) and returns per-job reports in deterministic
// presentation order.
func (s *Session) Sweep(ctx context.Context, ids []string, seeds int) ([]RunReport, error) {
	if s.verify {
		if err := s.Preflight(); err != nil {
			return nil, err
		}
	}
	if len(ids) == 0 {
		ids = s.ExperimentIDs()
	}
	jobs, err := runner.Jobs(ids, s.topo.Machine, seeds)
	if err != nil {
		return nil, err
	}
	return runner.Run(ctx, jobs, runner.Options{Parallelism: s.parallelism, Cache: s.cache})
}

// Pipeline is the session-level convenience for the paper's three-step
// flow on a single workload part: profile it, instrument the binary,
// and return the harness plus instrumented image ready for execution.
func (s *Session) Pipeline(part string, opts PipelineOptions, specs ...workloads.Spec) (*Harness, *Image, error) {
	h, img, err := s.pipelineUnverified(part, opts, specs...)
	if err != nil {
		return nil, nil, err
	}
	if s.verify {
		if _, err := s.VerifyImage(h, img); err != nil {
			return nil, nil, fmt.Errorf("verifying instrumented %s: %w", part, err)
		}
	}
	return h, img, nil
}

// pipelineUnverified is Pipeline without the WithVerification gate —
// the preflight uses it so a broken toolchain is reported as a
// verification failure rather than recursing into the gate.
func (s *Session) pipelineUnverified(part string, opts PipelineOptions, specs ...workloads.Spec) (*Harness, *Image, error) {
	h, err := s.NewHarness(specs...)
	if err != nil {
		return nil, nil, err
	}
	prof, smp, err := h.Profile(part)
	if err != nil {
		return nil, nil, err
	}
	if s.obs.Metrics != nil {
		smp.FillMetrics(&s.obs.Metrics.Sampler)
	}
	img, err := h.Instrument(prof, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("instrumenting %s: %w", part, err)
	}
	return h, img, nil
}

// VerifyImage statically verifies an instrumented image against the
// harness's original binary (internal/check): yield save masks cover
// every live register, insertions are effect-free and reachable,
// branch-target closure and call/ret discipline hold. The image must
// carry its pipeline report (Harness.Instrument output); externally
// rewritten images are verified with the shcheck tool instead. It
// returns the full diagnostic report; the error is non-nil when the
// report is not clean (a *CheckError wrapping the report).
func (s *Session) VerifyImage(h *Harness, img *Image) (*CheckReport, error) {
	if img == nil || img.Pipe == nil {
		return nil, fmt.Errorf("repro: VerifyImage needs an image with a pipeline report (from Harness.Instrument)")
	}
	entries := make([]int, 0, len(img.Entries))
	for _, e := range img.Entries {
		entries = append(entries, e)
	}
	sort.Ints(entries)
	rep := check.Program(h.Sc.Prog, img.Prog, img.Pipe.OldToNew, check.Options{Entries: entries})
	return rep, rep.Err()
}

// Preflight proves the instrumentation toolchain sound by running the
// full profile → instrument → verify pipeline on a small reference
// scenario and checking the result is clean. It runs at most once per
// session (the result is cached) and is invoked automatically by
// RunAll/Sweep when WithVerification is set.
func (s *Session) Preflight() error {
	s.preflightOnce.Do(func() {
		h, img, err := s.pipelineUnverified("chase", DefaultPipelineOptions(),
			workloads.PointerChase{Nodes: 2048, Hops: 500, Instances: 2})
		if err != nil {
			s.preflightErr = fmt.Errorf("repro: verification preflight: %w", err)
			return
		}
		if _, err := s.VerifyImage(h, img); err != nil {
			s.preflightErr = fmt.Errorf("repro: verification preflight: instrumentation toolchain is unsound: %w", err)
		}
	})
	return s.preflightErr
}

// Observability returns the session's observation surface as
// configured by WithObservability.
func (s *Session) Observability() ObservabilityConfig { return s.obs }

// MetricsSnapshot copies the current state of the session's metrics
// registry. It returns a zero snapshot when no registry is configured,
// so callers can render unconditionally.
func (s *Session) MetricsSnapshot() MetricsSnapshot {
	if s.obs.Metrics == nil {
		return MetricsSnapshot{}
	}
	return s.obs.Metrics.Snapshot()
}

// ExportTrace writes the session tracer's retained events as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing) to w,
// falling back to the configured TraceSink when w is nil. It errors
// when there is nowhere to write or the session's tracer is not a
// *TraceRing (only rings retain events to export).
func (s *Session) ExportTrace(w io.Writer, opt ChromeTraceOptions) error {
	if w == nil {
		w = s.obs.TraceSink
	}
	if w == nil {
		return fmt.Errorf("repro: ExportTrace needs a writer (none passed, no TraceSink configured)")
	}
	ring, ok := s.obs.Tracer.(*TraceRing)
	if !ok {
		return fmt.Errorf("repro: ExportTrace needs a *TraceRing tracer, have %T", s.obs.Tracer)
	}
	return trace.WriteChromeTrace(w, ring.Events(), opt)
}

// ---- Tracing surface (internal/trace) ----

type (
	// Tracer receives executor scheduling events; nil disables tracing
	// at the cost of one branch per event.
	Tracer = trace.Tracer
	// TraceRing is a bounded in-memory tracer; Reset reuses it across
	// runs without reallocating.
	TraceRing = trace.Ring
	// TraceEvent is one scheduling occurrence.
	TraceEvent = trace.Event
	// ChromeTraceOptions tunes Chrome trace-event export (cycle→µs
	// conversion, process labelling).
	ChromeTraceOptions = trace.ChromeTraceOptions
)

// NewTraceRing creates a tracer retaining up to n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// WriteChromeTrace converts trace events into Chrome trace-event JSON;
// Session.ExportTrace is the usual entry point.
var WriteChromeTrace = trace.WriteChromeTrace

// ---- Verification surface (internal/check) ----

type (
	// CheckReport is the accumulated outcome of one static verification
	// pass over an instrumented image: a structured diagnostic list, not
	// a first-error.
	CheckReport = check.Report
	// CheckDiagnostic is one finding: rule, severity, position, message.
	CheckDiagnostic = check.Diagnostic
	// CheckRule identifies which invariant a diagnostic violates.
	CheckRule = check.Rule
	// CheckError wraps a non-clean CheckReport as an error; unwrap with
	// errors.As to inspect the diagnostics of a failed verification.
	CheckError = check.ReportError
)

// ---- Metrics surface (internal/metrics) ----

type (
	// MetricsRegistry is the cycle-domain observability registry: plain
	// uint64 counters and fixed-array histograms bumped inline by the
	// runtime. The zero value is ready to use.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, renderable
	// as a stats.Table or a flat metric map.
	MetricsSnapshot = metrics.Snapshot
	// MetricsHist is a log2-bucketed fixed-array histogram.
	MetricsHist = metrics.Hist
)
