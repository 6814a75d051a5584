package exec

import (
	"repro/internal/coro"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Asym is the dual-mode scheduling loop (§3.3, asymmetric concurrency):
// one latency-sensitive primary, and scavengers that run in the shadow
// of its likely misses.
//
//   - The primary runs until a primary-phase YIELD (inserted before a
//     likely miss, after its prefetch). The loop opens a hide episode
//     sized from the prefetch's residual fill time and switches to a
//     scavenger.
//   - A scavenger hands the CPU back at the first conditional yield once
//     the window has elapsed. If it hits a primary-phase yield of its own
//     (its own likely miss) it chains to another scavenger instead,
//     scaling concurrency on demand; with no peer available it simply
//     keeps running (and absorbs its own stall).
//   - A halting scavenger is replaced by the next one, or the CPU returns
//     to the primary when the source has none left.
//   - With no primary at all, the source's idle fill runs and hands over
//     at its next yield boundary once a primary appears.
//
// Who the primary is and which scavenger comes next are the source's
// answers. Like Flat it is resumable at any cycle deadline: the open
// episode, the CPU holder and the poll quota live on the loop.
type Asym struct {
	lane
	src AsymSource

	inEpisode         bool
	epStart, epTarget uint64

	// st accumulates the episode accounting (Episodes, ChainSwitches,
	// HWSkips, PrimaryDelay); the other Stats fields stay zero.
	st Stats
}

// NewAsym prepares a dual-mode loop over ring, fed by src.
func (e *Executor) NewAsym(ring []*Task, src AsymSource) *Asym {
	return &Asym{lane: lane{e: e, ring: ring, cur: -1}, src: src}
}

// Run advances until the core clock reaches deadline (done=false) or
// the source has nothing pending (done=true).
//
//shsim:cycle-entry
//shsim:quantum-phase
//shsim:noalloc
func (l *Asym) Run(deadline uint64) (bool, error) {
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
		primary := l.src.Primary()
		if l.cur < 0 {
			// Nothing holds the CPU: the primary if any, else idle fill,
			// else idle to the next arrival.
			if l.cur = primary; l.cur < 0 {
				l.cur = l.src.IdleFill()
			}
			if l.cur < 0 {
				if err := l.idle(deadline); err != nil {
					return false, err
				}
				continue
			}
			e.resume(l.ring[l.cur])
		}
		t := l.ring[l.cur]
		isPrimary := l.cur == primary
		// The CondYield case below, ahead of time: the primary ignores
		// conditional yields, a scavenger acts on the first one once the
		// hide window has elapsed, an idle-filler on the first one while a
		// primary waits.
		wake := uint64(NoHorizon)
		if !isPrimary && l.inEpisode {
			wake = l.epStart + l.epTarget
		} else if !isPrimary && primary >= 0 {
			wake = 0
		}
		if err := l.retire(deadline, wake); err != nil {
			return false, err
		}
		targetMet := l.inEpisode && e.Core.Now-l.epStart >= l.epTarget

		switch {
		case l.r.Halted:
			e.emit(trace.Halt, t, 0)
			resched, err := l.src.OnHalt(l.cur)
			if err != nil {
				return false, err
			}
			switch {
			case isPrimary:
				// Promote whoever is primary next. No episode can be
				// open — the primary halts only while running.
				l.switchTo(l.src.Primary())
			case resched && targetMet:
				l.endEpisode()
			case l.inEpisode:
				// Keep the shadow full.
				if nxt := l.src.NextScavenger(l.cur); nxt >= 0 {
					l.noteChain()
					l.switchTo(nxt)
				} else {
					l.endEpisode()
				}
			default:
				// Idle fill finished an op: a waiting primary takes
				// over, else the loop top re-picks.
				l.switchTo(l.src.Primary())
			}

		case l.r.Yield && isPrimary:
			// A likely miss was prefetched: open a hide episode.
			nxt := l.src.NextScavenger(-1)
			if nxt < 0 {
				continue // nobody to hide behind; eat the miss
			}
			target, skip := l.hideWindow(t)
			if skip {
				continue
			}
			l.st.Episodes++
			l.inEpisode = true
			l.epStart = e.Core.Now
			l.epTarget = target
			e.emit(trace.EpisodeStart, t, target)
			e.switchFrom(t, l.r.LiveMask)
			l.switchTo(nxt)

		case l.r.Yield:
			// A scavenger hit its own likely miss: chain onward — or,
			// when idle-filling with a primary now waiting, hand over.
			if !l.inEpisode && primary >= 0 {
				e.switchFrom(t, l.r.LiveMask)
				l.switchTo(primary)
			} else if nxt := l.src.NextScavenger(l.cur); nxt >= 0 {
				e.switchFrom(t, l.r.LiveMask)
				e.emit(trace.Chain, t, 0)
				l.noteChain()
				l.switchTo(nxt)
			}
			// else: no peer; keep running and absorb the stall.

		case l.r.CondYield && !isPrimary:
			// Scavenger-phase yield, the hand-back point: return to the
			// primary once the hide window elapsed, or to a newly
			// arrived one when the core was idle-filling.
			if targetMet {
				e.switchFrom(t, l.r.LiveMask)
				l.endEpisode()
			} else if !l.inEpisode && primary >= 0 {
				e.switchFrom(t, l.r.LiveMask)
				l.switchTo(primary)
			}
		}
	}
	return true, nil
}

// switchTo hands the CPU to ring entity i (-1: to nobody).
func (l *Asym) switchTo(i int) {
	l.cur = i
	if i >= 0 {
		l.e.resume(l.ring[i])
	}
}

// endEpisode closes the open hide episode and resumes the primary.
func (l *Asym) endEpisode() {
	e := l.e
	p := l.src.Primary()
	l.inEpisode = false
	away := e.Core.Now - l.epStart
	if away > l.epTarget {
		l.st.PrimaryDelay += away - l.epTarget
	}
	if m := e.Cfg.Metrics; m != nil {
		m.Exec.NoteEpisode(away, l.epTarget)
	}
	e.emit(trace.EpisodeEnd, l.ring[p], away)
	l.switchTo(p)
}

// noteChain counts a scavenger-to-scavenger hand-off.
func (l *Asym) noteChain() {
	l.st.ChainSwitches++
	if m := l.e.Cfg.Metrics; m != nil {
		m.Exec.Chains++
	}
}

// hideWindow sizes the hide episode for a primary that just yielded:
// the residual fill time of its prefetch or pending accelerator call,
// else Config.HideTarget. With HWAssist it first pays for the §4.1
// presence probe, and reports skip when every pending event has
// already completed (line cached, accelerator done).
func (l *Asym) hideWindow(t *Task) (target uint64, skip bool) {
	e, ctx := l.e, t.Ctx
	var residual uint64
	if ctx.LastPrefetchValid {
		residual = e.Core.Hier.Residual(ctx.LastPrefetchAddr, e.Core.Now)
	}
	if ctx.AccelPending && ctx.AccelDone > e.Core.Now {
		residual = max(residual, ctx.AccelDone-e.Core.Now)
	}
	if e.Cfg.HWAssist && (ctx.LastPrefetchValid || ctx.AccelPending) {
		e.Core.AdvanceIdle(e.Cfg.HWAssistProbeCost)
		satisfied := residual == 0
		if satisfied && ctx.LastPrefetchValid {
			satisfied = e.Core.Hier.Contains(ctx.LastPrefetchAddr, e.Core.Now, mem.LevelL2)
		}
		if satisfied {
			l.st.HWSkips++
			if m := e.Cfg.Metrics; m != nil {
				m.Exec.HWSkips++
			}
			e.emit(trace.Skip, t, 0)
			return 0, true
		}
	}
	if residual > 0 {
		return residual, false
	}
	return e.Cfg.HideTarget, false
}

// RunDualMode executes one latency-sensitive primary with a fixed pool
// of scavengers: the Asym loop over a closed source. The run ends when
// the primary halts (then optionally drains the scavengers).
//
//shsim:cycle-entry
func (e *Executor) RunDualMode(primary *Task, scavengers []*Task) (Stats, error) {
	forceMode(coro.Primary, primary)
	forceMode(coro.Scavenger, scavengers...)
	ring := append([]*Task{primary}, scavengers...)
	set := &dualSet{core: e.Core, ring: ring, start: e.Core.Now}
	l := e.NewAsym(ring, set)
	l.cur = 0 // the primary already holds the CPU: no resume event
	if _, err := l.Run(NoDeadline); err != nil {
		return Stats{}, err
	}
	st := l.st
	st.PrimaryLatency = set.primaryLatency

	if e.Cfg.KeepScavengersAfterPrimary {
		// Drain remaining scavengers round-robin (pure throughput mode).
		var rem []*Task
		for _, s := range scavengers {
			if !s.Ctx.Halted {
				rem = append(rem, s)
			}
		}
		if len(rem) > 0 {
			if _, err := e.RunSymmetric(rem); err != nil {
				return Stats{}, err
			}
		}
	}

	st.Cycles = e.Core.Now - set.start
	collect(&st, ring...)
	return st, nil
}
