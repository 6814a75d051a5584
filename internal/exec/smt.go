package exec

import (
	"errors"
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
)

// errFuel is the SMT loop's fuel-exhaustion error, built once so the hot
// loop never formats.
var errFuel = fmt.Errorf("smt: %w", ErrFuelExhausted)

// errRound reports a broken premise of a skipped round: a context given
// whole slices' budget stopped short of it. Built once, like errFuel.
var errRound = errors.New("smt: a context in a skipped round stopped short of its slices")

// SMT is the stall-switch scheduling loop, the hardware-threads
// baseline (internal/smt): ring tasks multiplex the core as hardware
// threads, rotating every quantum busy cycles and switching for free
// whenever one exposes a memory stall. Software yields retire as no-ops
// and the loop emits no trace events: the hardware sees neither. Like
// Flat it is fed by a source (a task is runnable iff it has not halted
// and is not blocked on a fill) and resumable: the slice, rotation
// cursor and wake-ups live on the loop.
//
// The slice belongs to the core, not to a context. Only a full slice, a
// stall or a halt rotates — moves the cursor past the holder and starts a
// fresh slice; a call that stops short — clipped by a blocked peer's
// wake-up, an arrival or the deadline, or returning at a CYIELD — leaves
// both as they are. The next pick scans from the cursor again, so when the
// clip made an earlier context in scan order runnable (a peer whose fill
// landed, a slot an arrival armed), that context inherits the rest of the
// slice, quantum − sliceUsed, not a fresh one. This carry is why a serve
// cell's batch loops start their slices anywhere in their laps rather than
// at the loop head. TestRoundsSliceCarry pins it; changing it would move
// every SMT golden.
//
// Whole rounds in closed form (ARCHITECTURE §7). At a fresh slice, when
// every runnable context is inside a counting loop whose lap never yields
// and whose cost divides the quantum (cpu.Core.QuietLaps), each slice of a
// rotation round retires quantum/cost laps and ends at the pc it began at,
// and nothing another context or the clock does changes that; who is
// runnable cannot change before a blocked context wakes or the source is
// due. So Run hands each runnable context, in scan order, one RunBlock
// call of k slices' budget (the lap skip retires it in O(1)) and leaves
// the cursor where the k-th round would; the last context run is that
// round's last, so the clock and the last taken branch agree too. k is at
// least 2, every latch of the k rounds is provably taken, k·m·quantum
// cycles (m runnable contexts) end by the earliest wake-up and by the next
// arrival or deadline, and the rounds fit the fuel. Anything else — a
// chaser, a CYIELD in the lap, a clipped slice, an observer, a core whose
// traces were cleared — runs slice by slice for one table lookup a slice.
type SMT struct {
	lane // cur is the rotation cursor
	src  Source

	quantum      uint64
	ctxs         []*coro.Context // ring's contexts: the pick scans them every slice
	blockedUntil []uint64        // per-context memory-stall wake-ups
	idle         uint64          // cycles every context sat blocked
	loud         int             // the context that last spoiled a round skip
	sliceUsed    uint64
	rounds       RoundStats
}

// RoundStats counts how an SMT loop retired its slices. Like
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

// NewSMT prepares a stall-switch loop over ring, rotating every quantum
// (> 0) busy cycles, fed by src. Its fuel is the executor's MaxSteps.
// The source may re-arm ring entries in place, not replace them.
func (e *Executor) NewSMT(ring []*Task, quantum uint64, src Source) *SMT {
	ctxs := make([]*coro.Context, len(ring))
	for i, t := range ring {
		ctxs[i] = t.Ctx
	}
	return &SMT{
		lane:         lane{e: e, ring: ring},
		src:          src,
		quantum:      quantum,
		ctxs:         ctxs,
		blockedUntil: make([]uint64, len(ring)),
	}
}

// RoundStats returns the loop's host-side counts so far.
func (l *SMT) RoundStats() RoundStats { return l.rounds }

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
func (l *SMT) Run(deadline uint64) (bool, error) {
	core, fuel := l.e.Core, l.e.Cfg.MaxSteps
	n := len(l.ctxs)
	for l.src.Pending() {
		if core.Now >= deadline {
			return false, nil
		}
		if l.steps >= fuel {
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
		wake := NoHorizon
		for off, i := 0, l.cur; off < n; off, i = off+1, l.next(i) {
			if l.ctxs[i].Halted {
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
			if until == NoHorizon {
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
		ctx := l.ctxs[picked]
		if err := core.RunBlock(ctx, true, fuel-l.steps, budget, cpu.Horizon{}, &l.r); err != nil {
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
func (l *SMT) next(i int) int {
	if i++; i == len(l.ctxs) {
		return 0
	}
	return i
}

// skipRounds retires in closed form the whole rounds that lie ahead of a
// fresh slice going to picked, when they are quiet (see SMT) and there
// are at least two; stop is the next arrival or the deadline. It reports
// whether it did. The contexts between the cursor and picked are halted
// or blocked, so scan order from picked is the round's order.
//
//shsim:noalloc
func (l *SMT) skipRounds(picked int, stop uint64) (bool, error) {
	core, fuel := l.e.Core, l.e.Cfg.MaxSteps
	now := core.Now
	n := len(l.ctxs)
	// The context that spoiled the last attempt usually spoils this one,
	// and asking it first costs one table lookup.
	if ctx := l.ctxs[l.loud]; !ctx.Halted && l.blockedUntil[l.loud] <= now {
		if cost, _, _ := core.QuietLaps(ctx); cost == 0 {
			return false, nil
		}
	}
	fuelLeft := fuel - l.steps
	k := ^uint64(0)        // rounds in which every latch is provably taken
	h := stop              // the first cycle at which who is runnable could change
	var m, perRound uint64 // runnable contexts; instructions a round retires
	last := picked
	for off, i := 0, picked; off < n; off, i = off+1, l.next(i) {
		ctx := l.ctxs[i]
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
		ctx := l.ctxs[i]
		if ctx.Halted || l.blockedUntil[i] > now {
			continue
		}
		if err := core.RunBlock(ctx, true, fuel-l.steps, budget, cpu.Horizon{}, &l.r); err != nil {
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
