package exec

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
)

// lane is what the scheduling loops (Flat, Asym, SMT) share: a ring of
// tasks on one executor, who holds the CPU, and the block-retire step
// (retire, idle and the poll quota serve the coroutine loops). The
// loops are resumable — Run(deadline) advances until the core clock
// reaches the deadline, and a later call picks up exactly where it
// stopped. Slicing a run at arbitrary deadlines is byte-identical to
// running it unsliced: RunBlock's busy-budget stop is a fuel split, all
// state that must survive the cut lives on the loop, and the source
// never sees the cut (see quota).
type lane struct {
	e     *Executor
	ring  []*Task
	cur   int // ring entity holding the CPU; -1 = none
	steps uint64
	r     cpu.BlockResult

	// quota is the busy cycles left before the source is due its next
	// Poll; 0 = poll now. RunBlock budgets count busy cycles only, so an
	// arrival is noticed once that many have retired since the last
	// Poll — a deadline cut in between must carry the remainder, not
	// re-derive it from a clock that stalls have moved.
	quota uint64
	// due is the cycle that Poll returned. Until the clock reaches it, or
	// a halt intervenes, another Poll would admit nothing and return it
	// again (Source.Poll is idempotent) — the ground a dormant
	// conditional yield is skipped on.
	due uint64
}

// Steps returns the instructions retired so far.
func (l *lane) Steps() uint64 { return l.steps }

// retire runs the CPU holder until it yields, halts, or exhausts the
// quota or the cycles left to the deadline, and charges the quota. A
// halt or yield is a scheduling boundary and an exhausted quota an
// arrival: either way the source is polled next. Anything else was a
// deadline (or fuel) cut, which carries the remainder.
//
// wake is the first cycle at which the loop would act on a conditional
// yield (0: at any, NoHorizon: never). One that retires before wake, the
// next arrival and the deadline would bring the loop round to this call
// again having changed nothing — Pending and Primary move only in Poll
// and OnHalt, Poll before due is a no-op — except that the Poll re-bases
// the quota on the clock the yield retired at. RunBlock runs on past
// such a yield and reports that clock, so the quota comes out the same.
func (l *lane) retire(deadline, wake uint64) error {
	e := l.e
	bound := min(l.due, deadline)
	hz := cpu.Horizon{Wake: min(wake, bound), Bound: bound}
	if err := e.Core.RunBlock(l.ring[l.cur].Ctx, false, e.Cfg.MaxSteps-l.steps, min(l.quota, deadline-e.Core.Now), hz, &l.r); err != nil {
		return err
	}
	l.steps += l.r.Steps
	if l.r.Dormant > 0 {
		l.quota = l.due - l.r.DormantAt
	}
	if l.r.Halted || l.r.Yield || l.r.CondYield || l.r.Busy >= l.quota {
		l.quota = 0
	} else {
		l.quota -= l.r.Busy
	}
	return nil
}

// idle advances the clock to the next arrival (a just-polled quota
// away) or the deadline when nothing is runnable, and leaves the source
// due a Poll.
func (l *lane) idle(deadline uint64) error {
	now := l.e.Core.Now
	wait := min(l.quota, deadline-now)
	if now+wait == NoHorizon { // no arrival to come, no deadline set
		return fmt.Errorf("exec: nothing runnable, nothing due to arrive")
	}
	l.e.Core.AdvanceIdle(wait)
	l.quota = 0
	return nil
}

// Flat is the flat round-robin scheduling loop: every primary-phase
// yield rotates to the next runnable ring entity, blind to class;
// conditional yields stay dormant (every task runs in primary mode), so
// the retire tier never returns for one before the next arrival or the
// deadline.
type Flat struct {
	lane
	src Source
}

// NewFlat prepares a flat loop over ring, fed by src. The source may
// re-arm or replace ring entries in place.
func (e *Executor) NewFlat(ring []*Task, src Source) *Flat {
	return &Flat{lane: lane{e: e, ring: ring, cur: -1}, src: src}
}

// Run advances until the core clock reaches deadline (done=false: call
// again with a later one) or the source has nothing pending (done=true).
//
//shsim:cycle-entry
//shsim:quantum-phase
//shsim:noalloc
func (l *Flat) Run(deadline uint64) (bool, error) {
	e := l.e
	for l.src.Pending() {
		if e.Core.Now >= deadline {
			return false, nil
		}
		if l.steps >= e.Cfg.MaxSteps {
			return false, ErrFuelExhausted
		}
		if l.quota == 0 {
			l.due = l.src.Poll()
			l.quota = l.due - e.Core.Now
		}
		if l.cur < 0 || l.ring[l.cur].Ctx.Halted {
			nxt := nextRunnable(l.ring, l.cur)
			if nxt < 0 {
				if err := l.idle(deadline); err != nil {
					return false, err
				}
				continue
			}
			l.cur = nxt
			e.resume(l.ring[nxt])
		}
		if err := l.retire(deadline, NoHorizon); err != nil {
			return false, err
		}
		switch {
		case l.r.Halted:
			resched, err := l.src.OnHalt(l.cur)
			if err != nil {
				return false, err
			}
			if resched || l.ring[l.cur].Ctx.Halted {
				l.cur = nextRunnable(l.ring, l.cur)
			}
			if l.cur >= 0 {
				e.resume(l.ring[l.cur])
			}
		case l.r.Yield:
			if nxt := nextRunnable(l.ring, l.cur); nxt != l.cur {
				e.switchFrom(l.ring[l.cur], l.r.LiveMask)
				l.cur = nxt
				e.resume(l.ring[nxt])
			}
			// A budget stop neither yields nor halts: control returns to
			// the deadline check, or re-enters on the same task once the
			// source has admitted the arrival that clipped it.
		}
	}
	return true, nil
}

// nextRunnable scans the ring from cur+1, wrapping through cur itself;
// -1 means nothing is runnable.
func nextRunnable(ring []*Task, cur int) int {
	n := len(ring)
	for off := 1; off <= n; off++ {
		i := (cur + off + n) % n
		if !ring[i].Ctx.Halted {
			return i
		}
	}
	return -1
}

// RunWindowed processes a stream of tasks through a bounded window of W
// concurrently interleaved coroutines: when one completes, the next task
// from the stream takes its slot. This is the execution model of
// coroutine-oriented database engines (a batch of requests in flight,
// replenished as they retire) and the embodiment of the paper's intro
// point that software mechanisms support on-demand scaling of
// concurrency: W is a runtime knob, not a hardware property.
//
//shsim:cycle-entry
func (e *Executor) RunWindowed(stream []*Task, width int) (Stats, error) {
	if len(stream) == 0 {
		return Stats{}, fmt.Errorf("exec: no tasks")
	}
	if width < 1 {
		return Stats{}, fmt.Errorf("exec: window width must be ≥ 1")
	}
	forceMode(coro.Primary, stream...)
	start := e.Core.Now
	width = min(width, len(stream))
	w := &window{e: e, ring: append([]*Task(nil), stream[:width]...), stream: stream[width:], live: width}
	if _, err := e.NewFlat(w.ring, w).Run(NoDeadline); err != nil {
		return Stats{}, err
	}
	st := Stats{Cycles: e.Core.Now - start}
	collect(&st, stream...)
	return st, nil
}

// forceMode puts the tasks' contexts in mode.
func forceMode(mode coro.Mode, tasks ...*Task) {
	for _, t := range tasks {
		t.Ctx.Mode = mode
	}
}
