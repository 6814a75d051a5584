// Package exec is the runtime half of the paper's proposal: it interleaves
// instrumented coroutines on the simulated core.
//
// Two scheduling loops do all of it, each fed by a Source that is either
// a fixed task set (the closed-loop Run* entry points here) or an
// arrival-fed slot pool (internal/service):
//
//   - Flat: N equal coroutines round-robin at primary yields — the
//     CoroBase-style throughput mode the paper's §2 describes for
//     databases (RunSymmetric, RunWindowed). Over a ring of one, yields
//     are no-ops: the uninstrumented baseline and the measure of pure
//     instrumentation overhead (RunSolo).
//   - Asym (§3.3, asymmetric concurrency): one latency-sensitive primary
//     plus scavengers (RunDualMode). The primary yields only at likely
//     misses; scavengers run in the shadow of those misses and hand the
//     CPU back at a conditional yield once the miss is hidden, chaining
//     to more scavengers on demand when they hit misses of their own.
//
// internal/smt adds the third loop, hardware threads, over the same
// Source.
//
// Context switches are physically enacted: the outgoing coroutine's
// registers are saved per the yield's live mask and every register outside
// the mask is poisoned on resume, so the instrumenter's liveness analysis
// is verified by execution, not trusted.
package exec

import (
	"errors"

	"repro/internal/bincfg"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config tunes the runtime.
type Config struct {
	// Switch prices context switches.
	Switch coro.CostModel
	// HideTarget is the fallback hide window (cycles) for a primary yield
	// whose prefetch residual is unknown. Defaults to the machine's DRAM
	// latency when zero.
	HideTarget uint64
	// HWAssist enables the §4.1 cache-presence probe: a primary yield is
	// skipped when the just-prefetched line is already in L1/L2.
	HWAssist bool
	// HWAssistProbeCost is the probe's cycle cost.
	HWAssistProbeCost uint64
	// MaxSteps bounds total retired instructions per run (runaway guard).
	MaxSteps uint64
	// DisableSuperblocks keeps the superblock trace tier off: New
	// installs statically derived superblocks (bincfg.SuperblockSpecs)
	// alongside the block plan unless this is set. The tier is
	// observation-equivalent to block dispatch, and attached observers
	// bypass it entirely (profiling sees per-instruction retires either
	// way), so the knob exists for A/B measurement and differential
	// tests, not correctness.
	DisableSuperblocks bool
	// KeepScavengersAfterPrimary lets scavengers run to completion after
	// the primary halts (throughput accounting); when false the run ends
	// at primary halt.
	KeepScavengersAfterPrimary bool
	// Tracer, when non-nil, receives scheduling events (switches, hide
	// episodes, chains, halts) for debugging.
	Tracer trace.Tracer
	// Metrics, when non-nil, receives cycle-domain observability
	// counters: the executor bumps hide-episode histograms inline at
	// episode boundaries, and CaptureMetrics harvests the core- and
	// hierarchy-level counters on demand. The nil check per emission
	// site is the whole disabled-path cost — the same contract as
	// Tracer.
	Metrics *metrics.Registry
}

// DefaultConfig returns the reference runtime configuration.
func DefaultConfig() Config {
	return Config{
		Switch:            coro.DefaultCostModel(),
		HWAssistProbeCost: 2,
		MaxSteps:          200_000_000,
	}
}

// Task wraps a coroutine context under executor control.
type Task struct {
	Ctx  *coro.Context
	Mode coro.Mode

	saved    coro.Saved
	hasSaved bool
}

// NewTask wraps a context.
func NewTask(ctx *coro.Context, mode coro.Mode) *Task {
	ctx.Mode = mode
	return &Task{Ctx: ctx, Mode: mode}
}

// Reset discards any pending switched-out register save, so the task's
// context can be re-armed for fresh work (the open-loop service harness
// re-points a bounded pool of tasks at millions of requests). A task
// that ran to halt has no pending save — the executor only saves at
// yields — so this is defensive bookkeeping, but it makes re-arming
// correct even for a task abandoned mid-run.
func (t *Task) Reset() {
	t.saved = coro.Saved{}
	t.hasSaved = false
}

// Stats summarizes one run.
type Stats struct {
	// Cycles is the wall-clock duration of the run.
	Cycles uint64
	// Busy, Stall and Switch are aggregated over all tasks.
	Busy, Stall, Switch uint64
	// Retired counts instructions retired by all tasks.
	Retired uint64
	// Switches counts context switches enacted.
	Switches uint64
	// PrimaryLatency is the wall time from run start to primary halt
	// (dual-mode runs only).
	PrimaryLatency uint64
	// PrimaryDelay accumulates cycles the primary spent switched out
	// beyond the residual fill time it was hiding (dual-mode runs only):
	// the latency cost of asymmetric concurrency.
	PrimaryDelay uint64
	// Episodes counts primary yield episodes; ChainSwitches counts
	// scavenger-to-scavenger hand-offs inside episodes. ChainSwitches /
	// Episodes is the paper's "scavengers invoked per miss" (§3.3).
	Episodes      uint64
	ChainSwitches uint64
	// HWSkips counts primary yields skipped by the §4.1 presence probe.
	HWSkips uint64
	// Latencies[i] is the wall time from run start to task i's halt
	// (symmetric runs only; zero for tasks still running).
	Latencies []uint64
	// Halted counts tasks that ran to completion.
	Halted int
}

// Efficiency returns busy cycles as a fraction of wall cycles: the
// paper's CPU-efficiency metric.
func (s Stats) Efficiency() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Cycles)
}

// StallFraction returns stall cycles as a fraction of wall cycles.
func (s Stats) StallFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Stall) / float64(s.Cycles)
}

// IPC returns retired instructions per wall cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Executor drives tasks on a core.
type Executor struct {
	Core *cpu.Core
	Cfg  Config
}

// New creates an executor. It installs the basic-block fast-path plan on
// the core (unless one is already present), enabling cpu.RunBlock's fused
// straight-line retire for measured runs; profiling runs with observers
// attached automatically fall back to per-instruction dispatch.
func New(core *cpu.Core, cfg Config) *Executor {
	if cfg.HideTarget == 0 {
		cfg.HideTarget = core.Hier.Config().LatDRAM
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if !core.HasPlan() {
		// The program was validated when the core was built, so plan
		// construction cannot fail; a nil plan would only mean the slow
		// path, never a wrong answer.
		_ = bincfg.InstallFastPath(core)
	}
	if !cfg.DisableSuperblocks && !core.HasSuperblocks() {
		// Static BTFN derivation (no profile at construction time); a
		// failure or empty trace set degrades to block dispatch.
		_ = bincfg.InstallSuperblocks(core, nil)
	}
	return &Executor{Core: core, Cfg: cfg}
}

// ErrFuelExhausted is returned (wrapped, by the layers above) when a
// run exceeds its MaxSteps budget; match it with errors.Is.
var ErrFuelExhausted = errors.New("exec: MaxSteps exceeded (likely livelock)")

// switchFrom enacts a context switch away from t at a yield with the given
// live mask: save the live set, charge the cost, and mark for poisoned
// restore.
func (e *Executor) switchFrom(t *Task, mask isa.RegMask) {
	t.saved = t.Ctx.SaveLive(mask)
	t.hasSaved = true
	cost := e.Cfg.Switch.Cost(mask)
	e.Core.ChargeSwitch(t.Ctx, cost)
	e.emit(trace.SwitchOut, t, cost)
}

// resume reinstates a previously switched-out task, poisoning registers
// outside its saved mask.
func (e *Executor) resume(t *Task) {
	if t.hasSaved {
		t.Ctx.RestoreFrom(t.saved)
		t.hasSaved = false
	}
	e.emit(trace.Resume, t, 0)
}

// emit sends a trace event if tracing is enabled.
func (e *Executor) emit(kind trace.Kind, t *Task, arg uint64) {
	if e.Cfg.Tracer == nil {
		return
	}
	e.Cfg.Tracer.Emit(trace.Event{
		Kind: kind,
		Now:  e.Core.Now,
		Ctx:  t.Ctx.ID,
		PC:   t.Ctx.PC,
		Arg:  arg,
	})
}

// CaptureMetrics harvests the always-on core and hierarchy counters
// into the configured registry's Mem and CPU sections. The executor's
// own histogram sections are bumped inline during runs and need no
// harvest. A nil-metrics executor makes this a no-op, so callers can
// invoke it unconditionally after a run.
func (e *Executor) CaptureMetrics() {
	m := e.Cfg.Metrics
	if m == nil {
		return
	}
	e.Core.Hier.FillMetrics(&m.Mem)
	e.Core.Counters.FillMetrics(&m.CPU)
}

// collect aggregates task accounting into stats.
func collect(st *Stats, tasks ...*Task) {
	for _, t := range tasks {
		st.Busy += t.Ctx.BusyCycles
		st.Stall += t.Ctx.StallCycles
		st.Switch += t.Ctx.SwitchCycles
		st.Retired += t.Ctx.Retired
		st.Switches += t.Ctx.Switches
		if t.Ctx.Halted {
			st.Halted++
		}
	}
}
