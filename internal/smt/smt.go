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
	"errors"
	"fmt"

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
	// the hardware cannot prioritize. Zero selects DefaultConfig's.
	Quantum uint64
	// MaxSteps bounds total retired instructions (runaway guard). Zero
	// selects DefaultConfig's.
	MaxSteps uint64
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

// errRound reports a broken premise of a skipped round: a context given
// whole slices' budget stopped short of it. Built once, like errFuel.
var errRound = errors.New("smt: a context in a skipped round stopped short of its slices")

// Loop is the SMT stall-switch scheduling loop: ring contexts multiplex
// the core as hardware threads, rotating every Quantum busy cycles and
// switching for free whenever one exposes a memory stall. Like the exec
// loops it is fed by a source (a context is runnable iff it has not
// halted and is not blocked on a fill) and resumable: Run(deadline)
// multiplexes until the core clock reaches the deadline, and a later call
// picks up exactly where it stopped — slice, rotation cursor and wake-ups
// live on the loop.
//
// The slice belongs to the core, not to a context. Only a full slice, a
// stall or a halt rotates — moves the cursor past the holder and starts a
// fresh slice; a call that stops short — clipped by a blocked peer's
// wake-up, an arrival or the deadline, or returning at a CYIELD — leaves
// both as they are. The next pick scans from the cursor again, so when the
// clip made an earlier context in scan order runnable (a peer whose fill
// landed, a slot an arrival armed), that context inherits the rest of the
// slice, Quantum − sliceUsed, not a fresh one. This carry is why a serve
// cell's batch loops start their slices anywhere in their laps rather than
// at the loop head. TestRoundsSliceCarry pins it; changing it would move
// every SMT golden.
//
// Whole rounds in closed form (ARCHITECTURE §7). At a fresh slice, when
// every runnable context is inside a counting loop whose lap never yields
// and whose cost divides Quantum (cpu.Core.QuietLaps), each slice of a
// rotation round retires Quantum/cost laps and ends at the pc it began at,
// and nothing another context or the clock does changes that; who is
// runnable cannot change before a blocked context wakes or the source is
// due. So Run hands each runnable context, in scan order, one RunBlock
// call of k slices' budget (the lap skip retires it in O(1)) and leaves
// the cursor where the k-th round would; the last context run is that
// round's last, so the clock and the last taken branch agree too. k is at
// least 2, every latch of the k rounds is provably taken, k·m·Quantum
// cycles (m runnable contexts) end by the earliest wake-up and by the next
// arrival or deadline, and the rounds fit the fuel. Anything else — a
// chaser, a CYIELD in the lap, a clipped slice, an observer, a core whose
// traces were cleared — runs slice by slice for one table lookup a slice.
type Loop struct {
	core    *cpu.Core
	quantum uint64
	fuel    uint64
	ring    []*coro.Context
	src     exec.Source

	blockedUntil []uint64 // per-context memory-stall wake-ups
	idle         uint64
	cur          int
	loud         int // the context that last spoiled a round skip
	steps        uint64
	sliceUsed    uint64
	r            cpu.BlockResult
	rounds       RoundStats
}

// RoundStats counts how a Loop retired its slices. Like
// cpu.SuperblockStats the counts are exact and repeat run for run, but
// they describe the simulator, not the simulated machine: nothing
// architectural reads them, and they stay out of Stats, the metrics
// registry and every result.
type RoundStats struct {
	// Slices counts the RunBlock calls that ran one slice, or what a
	// wake-up, an arrival or the deadline left of it.
	Slices uint64
	// Skips counts the times whole rounds were retired in closed form
	// (one RunBlock call per runnable context each), Rounds the rounds so
	// retired and SkippedSlices their slices: rounds × runnable contexts.
	Skips, Rounds, SkippedSlices uint64
}

// NewLoop prepares a stall-switch loop over ring, fed by src. cfg is
// validated against ring, and a zero Quantum or MaxSteps takes
// DefaultConfig's. The source may re-arm ring entries in place.
func NewLoop(core *cpu.Core, cfg Config, ring []*coro.Context, src exec.Source) (*Loop, error) {
	switch {
	case cfg.Contexts <= 0:
		return nil, fmt.Errorf("smt: context count must be positive")
	case len(ring) == 0:
		return nil, fmt.Errorf("smt: no contexts")
	case len(ring) > cfg.Contexts:
		return nil, fmt.Errorf("smt: %d software threads exceed %d hardware contexts", len(ring), cfg.Contexts)
	}
	def := DefaultConfig()
	if cfg.Quantum == 0 {
		cfg.Quantum = def.Quantum
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = def.MaxSteps
	}
	return &Loop{
		core:         core,
		quantum:      cfg.Quantum,
		fuel:         cfg.MaxSteps,
		ring:         ring,
		src:          src,
		blockedUntil: make([]uint64, len(ring)),
	}, nil
}

// Steps returns the instructions retired so far.
func (l *Loop) Steps() uint64 { return l.steps }

// RoundStats returns the loop's host-side counts so far.
func (l *Loop) RoundStats() RoundStats { return l.rounds }

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
		for off, i := 0, l.cur; off < n; off, i = off+1, l.next(i) {
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
		if l.sliceUsed == 0 {
			skipped, err := l.skipRounds(picked, stop)
			if err != nil {
				return false, err
			}
			if skipped {
				continue
			}
		}
		// The busy budget is what remains of the slice, clipped to until.
		budget := min(l.quantum-l.sliceUsed, until-core.Now)
		ctx := l.ring[picked]
		if err := core.RunBlock(ctx, true, l.fuel-l.steps, budget, cpu.Horizon{}, &l.r); err != nil {
			return false, err
		}
		l.rounds.Slices++
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
			l.cur = l.next(picked)
			l.sliceUsed = 0
		}
	}
	return true, nil
}

// next is the ring index after i.
func (l *Loop) next(i int) int {
	if i++; i == len(l.ring) {
		return 0
	}
	return i
}

// skipRounds retires in closed form the whole rounds that lie ahead of a
// fresh slice going to picked, when they are quiet (see Loop) and there
// are at least two; stop is the next arrival or the deadline. It reports
// whether it did. The contexts between the cursor and picked are halted
// or blocked, so scan order from picked is the round's order.
//
//shsim:noalloc
func (l *Loop) skipRounds(picked int, stop uint64) (bool, error) {
	core := l.core
	now := core.Now
	n := len(l.ring)
	// The context that spoiled the last attempt usually spoils this one,
	// and asking it first costs one table lookup.
	if ctx := l.ring[l.loud]; !ctx.Halted && l.blockedUntil[l.loud] <= now {
		if cost, _, _ := core.QuietLaps(ctx); cost == 0 {
			return false, nil
		}
	}
	fuelLeft := l.fuel - l.steps
	k := ^uint64(0)        // rounds in which every latch is provably taken
	h := stop              // the first cycle at which who is runnable could change
	var m, perRound uint64 // runnable contexts; instructions a round retires
	last := picked
	for off, i := 0, picked; off < n; off, i = off+1, l.next(i) {
		ctx := l.ring[i]
		switch {
		case ctx.Halted:
		case l.blockedUntil[i] > now:
			h = min(h, l.blockedUntil[i])
		default:
			cost, instrs, taken := core.QuietLaps(ctx)
			if cost == 0 || l.quantum%cost != 0 {
				l.loud = i
				return false, nil
			}
			laps := l.quantum / cost // per slice, and the latches it executes
			if laps > fuelLeft/instrs || laps*instrs > fuelLeft-perRound {
				return false, nil // not even one round fits the fuel
			}
			k = min(k, taken/laps)
			perRound += laps * instrs
			m++
			last = i
		}
	}
	k = min(k, (h-now)/l.quantum/m, fuelLeft/perRound)
	if k < 2 {
		return false, nil
	}
	budget := k * l.quantum
	for off, i := 0, picked; off < n; off, i = off+1, l.next(i) {
		ctx := l.ring[i]
		if ctx.Halted || l.blockedUntil[i] > now {
			continue
		}
		if err := core.RunBlock(ctx, true, l.fuel-l.steps, budget, cpu.Horizon{}, &l.r); err != nil {
			return false, err
		}
		l.steps += l.r.Steps
		if l.r.Busy != budget || l.r.Stall != 0 || l.r.Halted {
			return false, errRound
		}
	}
	l.cur = l.next(last)
	l.rounds.Skips++
	l.rounds.Rounds += k
	l.rounds.SkippedSlices += k * m
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
	set := exec.NewFixedSet(core, len(ctxs), make([]uint64, len(ctxs)))
	l, err := NewLoop(core, cfg, ctxs, set)
	if err != nil {
		return nil, err
	}
	return &Runner{Loop: *l, set: set}, nil
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
