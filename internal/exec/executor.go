// Package exec is the runtime half of the paper's proposal: it interleaves
// instrumented coroutines on the simulated core.
//
// Three scheduling loops do all of it, each an exec.Loop fed by a
// Source: a fixed task set (Ticker, the one closed-loop runner behind
// RunSolo, RunSymmetric, RunSMT and the many-core kernel), a window or
// a primary with scavengers (RunWindowed, RunDualMode), or an
// arrival-fed slot pool (internal/service). Every run reports Stats:
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
//   - SMT: hardware threads switching on stalls at zero cost, blind to
//     yields and priority — the SMT baseline (RunSMT).
//
// Context switches are physically enacted: the outgoing coroutine's
// registers are saved per the yield's live mask and every register outside
// the mask is poisoned on resume, so the instrumenter's liveness analysis
// is verified by execution, not trusted.
package exec

import (
	"errors"

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
	// HWAssist enables the §4.1 cache-presence probe: a primary yield is
	// skipped when the just-prefetched line is already in L1/L2.
	HWAssist bool
	// MaxSteps bounds total retired instructions per run (runaway guard).
	MaxSteps uint64
	// DisableSuperblocks makes New clear the core's superblock traces
	// (cpu.Core.ClearSuperblocks), so RunBlock retires through plain block
	// dispatch. The trace tier is observation-equivalent to block
	// dispatch, down to the events attached observers receive (profiling
	// sees the same loads, stores, stalls and taken branches either
	// way), so the knob exists for A/B measurement, not correctness.
	DisableSuperblocks bool
	// Tracer, when non-nil, receives scheduling events (switches, hide
	// episodes, chains, halts) for debugging.
	Tracer trace.Tracer
	// Metrics, when non-nil, is the registry CaptureMetrics adds the
	// executor's counters into at run end. Nothing reads it during a
	// run.
	Metrics *metrics.Registry
}

// hwProbeCost is the cycle cost of the HWAssist presence probe.
const hwProbeCost = 2

// DefaultConfig returns the reference runtime configuration.
func DefaultConfig() Config {
	return Config{
		Switch:   coro.DefaultCostModel(),
		MaxSteps: 200_000_000,
	}
}

// Task wraps a coroutine context under executor control.
type Task struct {
	Ctx *coro.Context

	live isa.RegMask // registers the pending switch preserved; 0 when none is pending
}

// NewTask wraps a context, putting it in mode.
func NewTask(ctx *coro.Context, mode coro.Mode) *Task {
	ctx.Mode = mode
	return &Task{Ctx: ctx}
}

// Reset discards any pending switch, so the task's context can be
// re-armed for fresh work (the open-loop service harness re-points a
// bounded pool of tasks at millions of requests) without its fresh
// registers being poisoned on the next resume. A task that ran to halt
// has no pending switch — the executor only switches out at yields — so
// this is defensive bookkeeping, but it makes re-arming correct even for
// a task abandoned mid-run.
func (t *Task) Reset() { t.live = 0 }

// Stats summarizes one run.
type Stats struct {
	// Cycles is the wall-clock duration of the run.
	Cycles uint64
	// Busy, Stall and Switch are aggregated over all tasks. Hardware
	// threads overlap their stalls, so an SMT run's Stall is the time
	// every context sat blocked: Busy + Stall == Cycles.
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
	// (symmetric and SMT runs only; zero for tasks still running).
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

	hide *metrics.Exec // hide-episode accounting of its Asym loops; nil until the first
}

// New creates an executor over core, clearing its superblock traces when
// cfg.DisableSuperblocks is set.
func New(core *cpu.Core, cfg Config) *Executor {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if cfg.DisableSuperblocks {
		core.ClearSuperblocks()
	}
	return &Executor{Core: core, Cfg: cfg}
}

// ErrFuelExhausted is returned (wrapped, by the layers above) when a
// run exceeds its MaxSteps budget; match it with errors.Is.
var ErrFuelExhausted = errors.New("exec: MaxSteps exceeded (likely livelock)")

// switchFrom enacts a context switch away from t at a yield with the given
// live mask: record the live set, charge the cost, and mark for poisoned
// resume. Nothing is copied: the task owns its context, and nothing
// writes a switched-out context's registers, PC or flags.
func (e *Executor) switchFrom(t *Task, mask isa.RegMask) {
	t.live = mask.With(isa.SP) // never 0, so it marks the switch pending
	cost := e.Cfg.Switch.Cost(mask)
	e.Core.ChargeSwitch(t.Ctx, cost)
	e.emit(trace.SwitchOut, t, cost)
}

// resume reinstates a previously switched-out task, poisoning registers
// outside the mask its switch preserved.
func (e *Executor) resume(t *Task) {
	if t.live != 0 {
		t.Ctx.Poison(t.live)
		t.live = 0
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

// CaptureMetrics is the registry's harvest: it adds the executor's
// always-on counters — the hierarchy's, the core's and its Asym loops'
// hide-episode accounting — into the configured registry's Mem, CPU
// and Exec sections, so one registry totals every executor it observed
// (the runs of a session, the cores of a machine, the cells of a serve
// sweep). Call it once per executor, after its last run; without a
// registry it is a no-op.
func (e *Executor) CaptureMetrics() {
	m := e.Cfg.Metrics
	if m == nil {
		return
	}
	m.Mem.Add(e.Core.Hier.Stats)
	m.CPU.Add(e.Core.Counters.Totals)
	if e.hide != nil {
		m.Exec.Add(e.hide)
	}
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
