package repro

// This file is the open-loop service surface: the canonical way to ask
// the paper's datacenter question — what happens to tail latency when
// requests arrive on their own clock and the server cannot push back?
// Session.Serve sweeps a policy × offered-load grid through the
// deterministic runner (parallel, cached, byte-identical at any
// GOMAXPROCS, observed through WithObservability); the closed-loop Harness.Tasks + RunSymmetric/RunDualMode
// surface remains as the low-level building block underneath it.

import (
	"context"
	"fmt"

	"repro/internal/runner"
	"repro/internal/service"
)

type (
	// ServiceConfig describes one Serve call: the request/background
	// workload pair, the arrival process, the offered-load sweep, the
	// admission policy (queue bound, shedding) and the policy grid.
	// What observes the sweep is the session's (WithObservability), not
	// the config's.
	ServiceConfig = service.Config
	// ServiceReport is a served sweep: per-cell stats plus rendered
	// per-policy and cross-policy tail-latency tables.
	ServiceReport = service.Report
	// ServiceCell identifies one (policy, offered rate) grid point.
	ServiceCell = service.Cell
	// ServiceCellStats is one cell's outcome: drop/shed accounting,
	// throughput and the sojourn-time distribution (p50/p99/p999).
	ServiceCellStats = service.CellStats
	// ServicePolicy selects the serving discipline for a cell.
	ServicePolicy = service.Policy
	// Workload pairs the latency-sensitive request program with the
	// batch work that soaks up miss shadows and idle cycles.
	Workload = service.Workload
	// ArrivalSpec describes the open-loop arrival process (kind, rate
	// in requests per simulated µs, burstiness).
	ArrivalSpec = service.ArrivalSpec
	// ArrivalKind selects the arrival process shape.
	ArrivalKind = service.Kind
)

// Serving policies: the three software integration disciplines (§4.2)
// and the two baselines the paper argues against.
const (
	PolicyAgnostic   = service.Agnostic
	PolicySidecar    = service.Sidecar
	PolicyEventAware = service.EventAware
	PolicyOSThread   = service.OSThread
	PolicySMT        = service.SMT
)

// Arrival process kinds.
const (
	ArrivalPoisson = service.Poisson
	ArrivalUniform = service.Uniform
	ArrivalBursty  = service.Bursty
)

// DefaultServiceConfig returns the reference sweep: memory-bound point
// lookups arriving Poisson at three offered loads, served by the three
// software policies plus the OS-thread baseline.
func DefaultServiceConfig() ServiceConfig { return service.DefaultConfig() }

// ParseServicePolicies parses a comma-separated policy list as printed
// by ServicePolicy.String ("agnostic,event-aware,smt").
var ParseServicePolicies = service.ParsePolicies

// ParseArrivalKind parses an arrival-process name ("poisson",
// "uniform", "bursty").
var ParseArrivalKind = service.ParseKind

// cellConfig narrows the normalized sweep config to one cell: the
// exact configuration the cell runs.
func cellConfig(norm ServiceConfig, cl ServiceCell) ServiceConfig {
	norm.Rates = []float64{cl.Rate}
	norm.Policies = []ServicePolicy{cl.Policy}
	norm.Arrivals.Rate = cl.Rate
	return norm
}

// cellKey is a serve cell's cache key: its config plus the concrete
// types of the two workload specs (an interface value marshals its
// fields but not its identity, so PointerChase{} and BST{} with equal
// field sets must not collide).
func cellKey(cfg ServiceConfig) any {
	return struct {
		Config              ServiceConfig
		Request, Background string
	}{cfg, fmt.Sprintf("%T", cfg.Workload.Request), fmt.Sprintf("%T", cfg.Workload.Background)}
}

// Serve runs the open-loop service sweep on the session's machine:
// every (policy, offered rate) cell of cfg's grid is one runner job —
// fanned out over the session's worker pool, served from the result
// cache when enabled — and the report assembles in grid order
// regardless of parallelism. A zero cfg.Topology inherits the
// session's (WithTopology): on a multi-core session each cell
// load-balances the one arrival stream across per-core policy engines
// under the cycle-quantum kernel. Each cell is a pure function of
// (machine, config, cell), so the rendered report is byte-identical
// across GOMAXPROCS settings and repeated runs.
//
// Under WithObservability every core of every cell observes through
// the session's tracer and registry, as RunMachine's cores do, and the
// registry ends up holding the sweep's totals. An observed sweep runs
// its cells in grid order on one goroutine and simulates every one
// (a cached cell simulates nothing); its report is the unobserved one.
func (s *Session) Serve(ctx context.Context, cfg ServiceConfig) (*ServiceReport, error) {
	if cfg.Topology.Cores == 0 {
		cfg.Topology = s.topo
	}
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	mach := s.topo.Machine
	obs := s.observed(ExecConfig{})
	opts := runner.Options{Parallelism: s.parallelism, Cache: s.cache}
	if obs.Tracer != nil || obs.Metrics != nil {
		opts = runner.Options{Parallelism: 1}
	}
	cells := norm.Cells()
	jobs := make([]runner.Job, len(cells))
	for i, cl := range cells {
		cell := cellConfig(norm, cl)
		jobs[i] = runner.Job{
			ID:   cl.ResultID(),
			Mach: mach,
			Key:  cellKey(cell),
			Run: func(m Machine) (*ExperimentResult, error) {
				cs, err := service.RunCellObserved(m, cell, cl, obs.Tracer, obs.Metrics)
				if err != nil {
					return nil, err
				}
				return cellResult(cs), nil
			},
		}
	}
	rs, err := runner.Run(ctx, jobs, opts)
	if err != nil {
		return nil, err
	}
	rep := &ServiceReport{Cells: make([]ServiceCellStats, len(rs))}
	for i, r := range rs {
		cs, err := cellStatsFromResult(r.Res)
		if err != nil {
			return nil, fmt.Errorf("repro: %s: %w", r.Job.ID, err)
		}
		rep.Cells[i] = cs
	}
	return rep, nil
}

// cellField is one ServiceCellStats scalar under its result Metrics
// key; ptr is a *ServicePolicy, *int, *uint64 or *float64 into the
// stats.
type cellField struct {
	key string
	ptr any
}

// cellCodec is the one key table of the ServiceCellStats ↔
// ExperimentResult conversion, which cellResult and cellStatsFromResult
// both walk. The keys are part of the result cache's entry bytes.
func cellCodec(cs *ServiceCellStats) []cellField {
	return []cellField{
		{"policy_code", &cs.Policy},
		{"rate_per_us", &cs.Rate},
		{"cores", &cs.Cores},
		{"requests", &cs.Requests},
		{"completed", &cs.Completed},
		{"dropped", &cs.Dropped},
		{"shed", &cs.Shed},
		{"batch_ops", &cs.BatchOps},
		{"cycles", &cs.Cycles},
		{"switches", &cs.Switches},
		{"episodes", &cs.Episodes},
		{"chains", &cs.Chains},
		{"sojourn_p50_cycles", &cs.P50},
		{"sojourn_p99_cycles", &cs.P99},
		{"sojourn_p999_cycles", &cs.P999},
		{"sojourn_max_cycles", &cs.MaxSojourn},
		{"sojourn_mean_cycles", &cs.MeanSojourn},
	}
}

// cellResult converts a cell summary to an ExperimentResult so serve
// cells flow through the runner and its content-addressed cache like
// any experiment. The scalars ride in Metrics, the sojourn histogram in
// Tables[0].
func cellResult(cs ServiceCellStats) *ExperimentResult {
	res := &ExperimentResult{
		ID:      ServiceCell{Policy: cs.Policy, Rate: cs.Rate}.ResultID(),
		Title:   fmt.Sprintf("open-loop service: %s at %g req/µs", cs.Policy, cs.Rate),
		Metrics: map[string]float64{},
	}
	for _, f := range cellCodec(&cs) {
		switch p := f.ptr.(type) {
		case *ServicePolicy:
			res.Metrics[f.key] = float64(*p)
		case *int:
			res.Metrics[f.key] = float64(*p)
		case *uint64:
			res.Metrics[f.key] = float64(*p)
		case *float64:
			res.Metrics[f.key] = *p
		}
	}
	if cs.Hist != nil {
		res.Tables = append(res.Tables, cs.Hist)
	}
	return res
}

// cellStatsFromResult is the inverse of cellResult, used when a serve
// cell is replayed from the result cache.
func cellStatsFromResult(res *ExperimentResult) (ServiceCellStats, error) {
	var cs ServiceCellStats
	for _, f := range cellCodec(&cs) {
		v, ok := res.Metrics[f.key]
		if !ok {
			return ServiceCellStats{}, fmt.Errorf("result %s lacks metric %q", res.ID, f.key)
		}
		switch p := f.ptr.(type) {
		case *ServicePolicy:
			*p = ServicePolicy(v)
		case *int:
			*p = int(v)
		case *uint64:
			*p = uint64(v)
		case *float64:
			*p = v
		}
	}
	if len(res.Tables) > 0 {
		cs.Hist = res.Tables[0]
	}
	return cs, nil
}

// LoadSweep is the one-call form of the paper's tail-latency
// experiment: build a session from opts (seed, parallelism, cache) and
// serve cfg's whole policy × rate grid through it.
//
//	rep, _ := repro.LoadSweep(ctx, repro.DefaultServiceConfig(),
//	    repro.WithParallelism(8), repro.WithCache(""))
//	fmt.Print(rep)
func LoadSweep(ctx context.Context, cfg ServiceConfig, opts ...Option) (*ServiceReport, error) {
	s, err := NewSession(opts...)
	if err != nil {
		return nil, err
	}
	return s.Serve(ctx, cfg)
}
