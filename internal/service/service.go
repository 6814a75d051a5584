package service

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Policy selects the serving discipline for one sweep cell. The first
// three are the §4.2 software integration policies, which Drain also
// runs closed-loop (experiment E14); the last two are the hardware baselines the paper argues
// against.
type Policy uint8

// Serving policies.
const (
	// Agnostic knows nothing about request classes or short events: one
	// flat round-robin queue over in-flight requests and batch work,
	// rotating blindly at every yield. Requests queue behind batch.
	Agnostic Policy = iota
	// Sidecar dedicates a single FIFO lane to requests (one in flight
	// at a time) and lets the event-hiding executor borrow batch tasks
	// as scavengers for each request's miss shadows; between requests,
	// batch work fills the idle lane.
	Sidecar
	// EventAware co-schedules pending requests into the oldest
	// in-flight request's miss shadows ahead of batch work: the
	// scheduler treats a primary yield like a blocking I/O event and
	// always gives the CPU to the most latency-critical runnable task.
	EventAware
	// OSThread is the kernel-thread baseline: the Agnostic discipline
	// with every context switch priced at kernel cost
	// (baselines.OSThreadCostModel).
	OSThread
	// SMT is the hardware baseline: workers plus one batch context
	// multiplex the core as hardware threads, switching on memory
	// stalls with zero software overhead but also zero notion of
	// request priority, over the uninstrumented binary.
	SMT
)

func (p Policy) String() string {
	switch p {
	case Agnostic:
		return "agnostic"
	case Sidecar:
		return "sidecar"
	case EventAware:
		return "event-aware"
	case OSThread:
		return "os-thread"
	case SMT:
		return "smt"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses a policy name as printed by Policy.String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "agnostic":
		return Agnostic, nil
	case "sidecar":
		return Sidecar, nil
	case "event-aware":
		return EventAware, nil
	case "os-thread":
		return OSThread, nil
	case "smt":
		return SMT, nil
	}
	return 0, fmt.Errorf("service: unknown policy %q (want agnostic, sidecar, event-aware, os-thread or smt)", s)
}

// ParsePolicies parses a comma-separated policy list.
func ParsePolicies(csv string) ([]Policy, error) {
	var out []Policy
	for _, s := range strings.Split(csv, ",") {
		p, err := ParsePolicy(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Workload pairs the latency-sensitive request program with the batch
// work that soaks up miss shadows and idle cycles.
type Workload struct {
	// Request is the per-request program. One request = one instance
	// run to HALT; request j re-arms a worker slot with instance
	// j mod instances, so the spec needs at least Workers instances
	// (each concurrent slot owns one instance's stack).
	Request workloads.Spec
	// Background is the batch work. Nil selects Batch compute tasks (2
	// when Batch is 0 too); a set Background with Batch == 0 runs no
	// batch work. Batch tasks never finish: each halt validates the
	// result, counts a batch op, and re-arms the task with the next
	// instance.
	Background workloads.Spec
}

// Config describes one Serve call: the workload, the offered load, the
// admission policy, and the sweep grid.
type Config struct {
	// Workload is the request/background program pair. Zero means the
	// default pointer-chase request over compute batch work.
	Workload Workload
	// Arrivals is the arrival process; its Rate is used when Rates is
	// empty, otherwise each entry of Rates overrides it per cell.
	Arrivals ArrivalSpec
	// Rates sweeps the offered load (requests per simulated µs).
	Rates []float64
	// Requests is the number of requests offered per cell.
	Requests int
	// Workers bounds concurrent in-flight requests (slots). Sidecar
	// always serves one request at a time regardless.
	Workers int
	// Queue is the admission-queue capacity; arrivals beyond it drop.
	Queue int
	// ShedAfter, when positive, sheds requests older than this many
	// cycles at dispatch time (admitted, but too stale to serve).
	ShedAfter uint64
	// Batch is the number of background batch tasks.
	Batch int
	// Policies is the serving-discipline sweep.
	Policies []Policy
	// MaxSteps bounds retired instructions per cell (runaway guard,
	// summed across cores for multi-core cells).
	MaxSteps uint64
	// Topology spreads each cell over a many-core machine: one shared
	// open-loop arrival stream is load-balanced across Cores per-core
	// policy engines contending for the shared LLC under the
	// cycle-quantum kernel. Cores ≤ 1 (the default) serves on the
	// classic single-core engine. The Machine field is ignored —
	// RunCell's machine argument is the authoritative per-core template
	// (normalization zeroes it so a cache key never depends on a field
	// the simulation does not read).
	Topology machine.Topology
}

// DefaultConfig returns a moderate sweep: memory-bound point lookups
// arriving Poisson at three offered loads, served by the three software
// policies plus the OS-thread baseline.
func DefaultConfig() Config {
	return Config{
		Arrivals: ArrivalSpec{Kind: Poisson, Rate: 0.2, Burst: 8},
		Rates:    []float64{0.05, 0.1, 0.2},
		Requests: 2000,
		Policies: []Policy{Agnostic, Sidecar, EventAware, OSThread},
	}
}

// withDefaults fills zero-value fields.
func (cfg Config) withDefaults() Config {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.Batch == 0 && cfg.Workload.Background == nil {
		cfg.Batch = 2
	}
	if cfg.Requests == 0 {
		cfg.Requests = DefaultConfig().Requests
	}
	if cfg.Workload.Request == nil {
		// Point lookups: a short dependent-pointer walk, the paper's
		// model of a memory-bound request (§2).
		cfg.Workload.Request = workloads.PointerChase{Nodes: 4096, Hops: 24, Instances: cfg.Workers}
	}
	if cfg.Workload.Background == nil && cfg.Batch > 0 {
		cfg.Workload.Background = workloads.Compute{Iters: 3000, Instances: cfg.Batch}
	}
	if cfg.Arrivals.Kind == Poisson && cfg.Arrivals.Rate == 0 {
		cfg.Arrivals = DefaultConfig().Arrivals
	}
	// Only Bursty arrivals read Burst: zeroing it elsewhere keeps the
	// normalized config independent of it, as Topology.Machine below.
	// A NaN or infinite one stays for Validate to refuse.
	if b := cfg.Arrivals.Burst; cfg.Arrivals.Kind != Bursty && !math.IsNaN(b) && !math.IsInf(b, 0) {
		cfg.Arrivals.Burst = 0
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{cfg.Arrivals.Rate}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = DefaultConfig().Policies
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1 << 40
	}
	if cfg.Topology.Cores == 0 {
		cfg.Topology.Cores = 1
	}
	// The per-core template comes from RunCell's machine argument, never
	// from the topology: zeroing the unread field keeps the normalized
	// config (the cache-key contract) independent of it.
	cfg.Topology.Machine = core.Machine{}
	if cfg.Topology.Cores > 1 {
		if cfg.Topology.LLC == (mem.LLCConfig{}) {
			cfg.Topology.LLC = mem.DefaultLLCConfig(cfg.Topology.Cores)
		}
		if cfg.Topology.Quantum == 0 {
			cfg.Topology.Quantum = machine.DefaultQuantum
		}
	} else {
		// Single-core cells never slice quanta or touch a shared LLC, so
		// the canonical form of every ≤1-core topology is the same.
		cfg.Topology.LLC = mem.LLCConfig{}
		cfg.Topology.Quantum = 0
	}
	return cfg
}

// Normalized fills every zero field with its default and validates the
// result: the exact configuration RunCell executes. Callers deriving
// cache keys must key on the normalized value, so an explicit default
// and a zero field name the same computation.
func (cfg Config) Normalized() (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration after default-filling.
func (cfg Config) Validate() error {
	if cfg.Workload.Request == nil {
		return fmt.Errorf("service: no request workload")
	}
	if cfg.Requests < 1 {
		return fmt.Errorf("service: request count %d must be positive", cfg.Requests)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("service: worker count %d must be positive", cfg.Workers)
	}
	if cfg.Queue < 1 {
		return fmt.Errorf("service: queue capacity %d must be positive", cfg.Queue)
	}
	if cfg.Batch < 0 {
		return fmt.Errorf("service: negative batch task count %d", cfg.Batch)
	}
	if cfg.Batch > 0 && cfg.Workload.Background == nil {
		return fmt.Errorf("service: %d batch tasks but no background workload", cfg.Batch)
	}
	for _, r := range cfg.Rates {
		spec := cfg.Arrivals
		spec.Rate = r
		if err := spec.validate(); err != nil {
			return err
		}
		if end := spec.maxClock(cfg.Requests); !(end < 1<<63) {
			return fmt.Errorf("service: arrival rate %v cannot keep %d arrivals inside the 2^63-cycle clock (their last may fall at cycle %.3g)",
				r, cfg.Requests, end)
		}
	}
	for _, p := range cfg.Policies {
		if p > SMT {
			return fmt.Errorf("service: unknown policy %d", uint8(p))
		}
	}
	return cfg.Topology.ValidateShape()
}

// Cell identifies one point of the sweep grid.
type Cell struct {
	Policy Policy
	Rate   float64
}

// Cells enumerates the sweep grid in deterministic order: policies in
// configured order, rates ascending within each policy as given.
func (cfg Config) Cells() []Cell {
	var cells []Cell
	for _, p := range cfg.Policies {
		for _, r := range cfg.Rates {
			cells = append(cells, Cell{Policy: p, Rate: r})
		}
	}
	return cells
}
