// Package smt models simultaneous multithreading as a baseline: K hardware
// contexts multiplex one core, switching on memory stalls with zero
// software overhead.
//
// This captures both limitations the paper attributes to SMT (§1): the
// degree of concurrency is capped at the hardware context count (2–8 on
// real cores), and the hardware has no notion of application priority — a
// latency-sensitive thread is multiplexed like any other, so its latency
// inflates with the number of co-runners.
package smt

import (
	"fmt"

	"repro/internal/bincfg"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
)

// Config tunes the SMT model.
type Config struct {
	// Contexts is the number of hardware threads (2-8 on real parts).
	Contexts int
	// Quantum is the fine-grained multiplexing grain in cycles: the model
	// rotates runnable contexts every Quantum busy cycles, approximating
	// per-cycle issue-slot sharing. This is what makes SMT inflate the
	// latency of a thread sharing the core with compute-bound peers —
	// the hardware cannot prioritize.
	Quantum uint64
	// MaxSteps bounds total retired instructions (runaway guard).
	MaxSteps uint64
	// DisableSuperblocks keeps the superblock trace tier off (see
	// exec.Config.DisableSuperblocks); superblock exits respect the
	// quantum budget and stall-block boundaries exactly, so this is an
	// A/B and differential-testing knob, not a correctness one.
	DisableSuperblocks bool
}

// DefaultConfig models 2-way SMT (Intel Hyper-Threading) with a fine
// multiplexing grain.
func DefaultConfig() Config {
	return Config{Contexts: 2, Quantum: 4, MaxSteps: 200_000_000}
}

// Stats summarizes an SMT run.
type Stats struct {
	// Cycles is the wall-clock duration.
	Cycles uint64
	// Busy is the sum of busy cycles across hardware contexts.
	Busy uint64
	// Idle counts cycles during which every context was blocked on
	// memory — the stalls SMT failed to hide.
	Idle uint64
	// Retired counts instructions retired by all contexts.
	Retired uint64
	// Latencies[i] is the wall time from run start to context i's halt.
	Latencies []uint64
}

// Efficiency returns busy cycles as a fraction of wall cycles.
func (s Stats) Efficiency() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Cycles)
}

// Run multiplexes the contexts on the core until all halt. Software
// yields (YIELD/CYIELD) retire as no-ops: SMT is hardware-only and cannot
// see them. len(ctxs) must not exceed cfg.Contexts.
//
//shsim:cycle-entry
func Run(core *cpu.Core, cfg Config, ctxs []*coro.Context) (Stats, error) {
	r, err := NewRunner(core, cfg, ctxs)
	if err != nil {
		return Stats{}, err
	}
	if _, err := r.Run(exec.NoDeadline); err != nil {
		return Stats{}, err
	}
	return r.Stats(), nil
}

// errFuel is the loop's fuel-exhaustion error, built once so the hot
// loop never formats.
var errFuel = fmt.Errorf("smt: %w", exec.ErrFuelExhausted)

// Loop is the SMT stall-switch scheduling loop: ring contexts multiplex
// the core as hardware threads, rotating every Quantum busy cycles and
// switching for free whenever one exposes a memory stall. Like the exec
// loops it is fed by a source (a context is runnable iff it has not
// halted) and resumable: Run(deadline) multiplexes until the core clock
// reaches the deadline, and a later call picks up exactly where it
// stopped — slice, rotation cursor and wake-ups live on the loop.
type Loop struct {
	core    *cpu.Core
	quantum uint64
	fuel    uint64
	ring    []*coro.Context
	src     exec.Source

	blockedUntil []uint64 // per-context memory-stall wake-ups
	idle         uint64
	cur          int
	steps        uint64
	sliceUsed    uint64
	r            cpu.BlockResult
}

// NewLoop prepares a stall-switch loop over ring, fed by src, with the
// hardware-thread slice length and MaxSteps budget of cfg. The source
// may re-arm ring entries in place.
func NewLoop(core *cpu.Core, cfg Config, ring []*coro.Context, src exec.Source) *Loop {
	return &Loop{
		core:         core,
		quantum:      cfg.Quantum,
		fuel:         cfg.MaxSteps,
		ring:         ring,
		src:          src,
		blockedUntil: make([]uint64, len(ring)),
	}
}

// Steps returns the instructions retired so far.
func (l *Loop) Steps() uint64 { return l.steps }

// Run advances until the core clock reaches deadline (done=false: call
// again with a later one) or the source has nothing pending (done=true).
// Two clips make slicing lossless: the busy budget handed to the block
// engine never extends past the deadline or the next arrival (in block
// mode the clock advances by exactly the busy cycles retired), and an
// all-blocked idle advance stops there too (the remaining wait is
// re-derived from blockedUntil, so splitting it changes no state).
//
//shsim:cycle-entry
//shsim:quantum-phase
//shsim:noalloc
func (l *Loop) Run(deadline uint64) (bool, error) {
	core := l.core
	n := len(l.ring)
	for l.src.Pending() {
		if core.Now >= deadline {
			return false, nil
		}
		if l.steps >= l.fuel {
			return false, errFuel
		}
		stop := min(l.src.Poll(), deadline)
		// Pick the next runnable context, round-robin from cur. Contexts
		// skipped over (earlier in scan order but currently blocked) may
		// unblock while the picked one runs; wake records the earliest
		// such wake-up so the block engine hands control back at exactly
		// the instruction boundary where a per-instruction loop would
		// have re-picked them.
		picked := -1
		wake := exec.NoHorizon
		for off := 0; off < n; off++ {
			i := (l.cur + off) % n
			if l.ring[i].Halted {
				continue
			}
			if l.blockedUntil[i] <= core.Now {
				picked = i
				break
			}
			wake = min(wake, l.blockedUntil[i])
		}
		// until is the next cycle at which the pick could change: the
		// wake-up of a skipped-over peer, the next arrival, the deadline.
		until := min(wake, stop)
		if picked < 0 {
			// Every live context is blocked on memory, or none is live:
			// idle until then. This is the exposed stall SMT cannot hide.
			if until == exec.NoHorizon {
				return false, fmt.Errorf("smt: deadlock — nothing runnable and nothing pending") //shsim:alloc-ok cold deadlock guard; fails the run
			}
			l.idle += until - core.Now
			core.AdvanceIdle(until - core.Now)
			continue
		}
		// The busy budget is what remains of the slice, clipped to until.
		budget := min(l.quantum-l.sliceUsed, until-core.Now)
		ctx := l.ring[picked]
		if err := core.RunBlock(ctx, true, l.fuel-l.steps, budget, cpu.Horizon{}, &l.r); err != nil {
			return false, err
		}
		l.steps += l.r.Steps
		l.sliceUsed += l.r.Busy
		rotate := false
		if l.r.Stall > 0 {
			// Block on the fill; the hardware switches to a peer for free.
			l.blockedUntil[picked] = core.Now + l.r.Stall
			ctx.StallCycles += l.r.Stall
			rotate = true
		}
		if l.r.Halted {
			// Hardware threads rotate at every halt, boundary or not.
			if _, err := l.src.OnHalt(picked); err != nil {
				return false, err
			}
			rotate = true
		}
		if rotate || l.sliceUsed >= l.quantum {
			l.cur = (picked + 1) % n
			l.sliceUsed = 0
		}
	}
	return true, nil
}

// Runner is the closed-loop SMT run the cycle-quantum kernel
// (internal/machine) steps: a Loop over a fixed context set. The free
// Run function is Run(exec.NoDeadline) over one.
type Runner struct {
	Loop
	set *exec.FixedSet
}

// NewRunner validates the configuration and prepares a resumable run.
func NewRunner(core *cpu.Core, cfg Config, ctxs []*coro.Context) (*Runner, error) {
	if cfg.Contexts <= 0 {
		return nil, fmt.Errorf("smt: context count must be positive")
	}
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("smt: no contexts")
	}
	if len(ctxs) > cfg.Contexts {
		return nil, fmt.Errorf("smt: %d software threads exceed %d hardware contexts", len(ctxs), cfg.Contexts)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultConfig().Quantum
	}
	if !core.HasPlan() {
		// Enable the basic-block fast path; the program was validated at
		// core construction, so this cannot fail (and a nil plan would
		// only mean per-instruction dispatch, never a wrong answer).
		_ = bincfg.InstallFastPath(core)
	}
	if !cfg.DisableSuperblocks && !core.HasSuperblocks() {
		_ = bincfg.InstallSuperblocks(core, nil)
	}
	set := exec.NewFixedSet(core, len(ctxs), make([]uint64, len(ctxs)))
	return &Runner{Loop: *NewLoop(core, cfg, ctxs, set), set: set}, nil
}

// Done reports whether every context has halted.
func (rn *Runner) Done() bool { return !rn.set.Pending() }

// Stats assembles the run statistics; complete once Run reported done.
func (rn *Runner) Stats() Stats {
	st := Stats{
		Cycles:    rn.core.Now - rn.set.Start,
		Idle:      rn.idle,
		Latencies: rn.set.Latencies,
	}
	for _, c := range rn.ring {
		st.Busy += c.BusyCycles
		st.Retired += c.Retired
	}
	return st
}
