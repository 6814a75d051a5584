// This file is the flat compatibility surface: type aliases and free
// functions predating the Session entry point (see session.go) and the
// Topology-centred machine description (see topology.go). New code
// should start from NewSession + WithTopology, which own the machine
// description, experiment lookup/run, instrumentation and execution
// policy in one place. The aliases that name simulator building blocks
// (Harness, workloads, configs) are not deprecated; the free functions
// Session subsumed — DefaultMachine, Experiments, LookupExperiment,
// ExperimentIDs — have been removed (see the migration table in
// doc.go).
package repro

import (
	"repro/internal/baselines"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/sfi"
	"repro/internal/smt"
	"repro/internal/workloads"
)

// ---- Machine & pipeline (internal/core) ----

type (
	// Machine describes one simulated core's platform: cache hierarchy,
	// core cost model, sampler configuration and coroutine switch
	// pricing. It is the type of Topology.Machine, the per-core template;
	// a single-core machine is Topology{Cores: 1, Machine: m}.
	Machine = experiments.Machine
	// Harness owns a composed workload scenario and builds executors.
	Harness = experiments.Harness
	// Image is a (possibly instrumented) executable program.
	Image = experiments.Image
	// TaskSet couples coroutine tasks with host-reference results.
	TaskSet = experiments.TaskSet
)

// NS converts simulated cycles to nanoseconds (3 GHz clock).
func NS(cycles float64) float64 { return experiments.NS(cycles) }

// ---- Coroutines & execution (internal/coro, internal/exec) ----

type (
	// Mode selects primary or scavenger behaviour for a coroutine.
	Mode = coro.Mode
	// CostModel prices context switches.
	CostModel = coro.CostModel
	// ExecConfig tunes the runtime (switch pricing, hide targets, §4.1
	// hardware assist).
	ExecConfig = exec.Config
	// ExecStats summarizes a run.
	ExecStats = exec.Stats
	// Task is one coroutine under executor control.
	Task = exec.Task
	// Executor interleaves coroutine tasks on the simulated core.
	Executor = exec.Executor
)

// Coroutine modes.
const (
	Primary   = coro.Primary
	Scavenger = coro.Scavenger
)

// DefaultCostModel returns the reference coroutine switch pricing
// (24 cycles = 8 ns full save).
func DefaultCostModel() CostModel { return coro.DefaultCostModel() }

// OSThreadCostModel prices switches at kernel-thread cost (1.5 µs).
func OSThreadCostModel() CostModel { return baselines.OSThreadCostModel() }

// ---- Instrumentation (internal/instrument) ----

type (
	// PipelineOptions configures both instrumentation phases.
	PipelineOptions = instrument.PipelineOptions
	// InstrumentOptions configures the primary phase.
	InstrumentOptions = instrument.Options
	// ScavengerOptions configures the scavenger phase.
	ScavengerOptions = instrument.ScavengerOptions
	// Policy decides which profiled loads get a prefetch+yield.
	Policy = instrument.Policy
	// ThresholdPolicy instruments loads whose miss rate exceeds a bound.
	ThresholdPolicy = instrument.ThresholdPolicy
	// CostBenefitPolicy instruments loads with positive modelled gain.
	CostBenefitPolicy = instrument.CostBenefitPolicy
)

// DefaultPipelineOptions enables both phases with reference settings.
func DefaultPipelineOptions() PipelineOptions { return instrument.DefaultPipelineOptions() }

// ---- Profiles (internal/profile, internal/pebs) ----

type (
	// Profile is the aggregated sample-based profile.
	Profile = profile.Profile
	// Sampler is the PEBS/LBR sampler attached to a profiling run.
	Sampler = pebs.Sampler
	// SamplerConfig tunes the PEBS/LBR sampler.
	SamplerConfig = pebs.Config
	// PipelineResult reports what the instrumentation pipeline did.
	PipelineResult = instrument.PipelineResult
	// Scenario is a composed set of workloads over one memory.
	Scenario = workloads.Scenario
)

// ---- Machine substrate configs ----

type (
	// MemConfig sizes the cache hierarchy.
	MemConfig = mem.Config
	// CPUConfig fixes instruction costs and the SFI sandbox.
	CPUConfig = cpu.Config
	// SMTConfig tunes the SMT baseline.
	SMTConfig = smt.Config
	// SMTStats summarizes an SMT run.
	SMTStats = smt.Stats
	// SFIOptions configures software-fault-isolation hardening.
	SFIOptions = sfi.Options
	// SFIResult reports what the SFI pass inserted.
	SFIResult = sfi.Result
)

// SMTRun multiplexes contexts on a core under the SMT baseline model.
var SMTRun = smt.Run

// SFIHarden inserts software-fault-isolation guards into a program.
var SFIHarden = sfi.Harden

// AnnotateLoads inserts CoroBase-style manual prefetch+yield annotations.
var AnnotateLoads = baselines.AnnotateLoads

// ---- Workloads (internal/workloads) ----

type (
	// WorkloadSpec is a buildable workload.
	WorkloadSpec = workloads.Spec
	// PointerChase is the canonical memory-bound kernel.
	PointerChase = workloads.PointerChase
	// PaddedChase adds configurable compute between hops.
	PaddedChase = workloads.PaddedChase
	// MultiChase advances three independent chains in lockstep.
	MultiChase = workloads.MultiChase
	// MixedChase mixes missing and cache-hot loads in one loop.
	MixedChase = workloads.MixedChase
	// HashJoin probes a chained hash table (CoroBase's workload).
	HashJoin = workloads.HashJoin
	// BinarySearch performs lower-bound probes over a sorted array.
	BinarySearch = workloads.BinarySearch
	// BST searches an unbalanced binary search tree.
	BST = workloads.BST
	// BTree searches a bulk-loaded B+-tree index.
	BTree = workloads.BTree
	// SkipList searches a four-level skip list.
	SkipList = workloads.SkipList
	// ArrayScan is the cache-friendly sequential foil.
	ArrayScan = workloads.ArrayScan
	// AccelStream submits and awaits onboard-accelerator operations.
	AccelStream = workloads.AccelStream
	// Scatter performs random store-dominated table updates.
	Scatter = workloads.Scatter
	// Compute is a pure-ALU loop (the default scavenger payload).
	Compute = workloads.Compute
	// UnrolledCompute has a long straight-line body.
	UnrolledCompute = workloads.UnrolledCompute
)

// ---- Experiments (internal/experiments) ----

type (
	// ExperimentResult is one experiment's tables and metrics.
	ExperimentResult = experiments.Result
	// ExperimentRunner produces one experiment result.
	ExperimentRunner = experiments.Runner
)

// ---- ISA (internal/isa), for tools that manipulate binaries ----

type (
	// Program is a decoded instruction sequence.
	Program = isa.Program
	// BinaryImage is the encoded form the instrumenter rewrites.
	BinaryImage = isa.Image
)

// Assemble translates assembly text into a program.
var Assemble = isa.Assemble

// Encode converts a program into its binary image.
var Encode = isa.Encode

// Decode converts a binary image back into a program.
var Decode = isa.Decode

// Disassemble renders a program as re-assemblable text.
var Disassemble = isa.Disassemble
