package exec

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/trace"
)

// scavPeriod is the cycle distance between two conditional yields of
// testImage's scav loop: five unit-cost instructions, no memory.
const scavPeriod = 5

// countingSet is a closed source that counts how often its loop polls.
type countingSet struct {
	*FixedSet
	polls int
}

func (s *countingSet) Poll() uint64 {
	s.polls++
	return s.FixedSet.Poll()
}

// A flat run of an instrumented compute loop has nothing to do at its
// conditional yields, and with no arrival due it must not come back to
// the source for them: the poll count is a constant, not the yield
// count. The observer path honours the same horizon, so it polls exactly
// as often and ends in the same place, as must a run cut into deadline
// slices (a cut polls only when it lands on a yield, which then is no
// longer below the horizon).
func TestFlatDormantYieldsDoNotPoll(t *testing.T) {
	const iters = 5000 // one CYIELD each
	run := func(observe bool, slice uint64) (polls int, now, steps uint64) {
		core, m := newMachine(t, testImage, 1<<20)
		e := New(core, DefaultConfig())
		if observe {
			core.Observe(&countingObserver{})
		}
		set := &countingSet{FixedSet: NewFixedSet(core, 1, nil)}
		l := e.NewFlat([]*Task{scavTask(core, m, 0, iters)}, set)
		deadline := uint64(NoDeadline)
		for done := false; !done; {
			if slice > 0 {
				deadline = core.Now + slice
			}
			var err error
			if done, err = l.Run(deadline); err != nil {
				t.Fatal(err)
			}
		}
		return set.polls, core.Now, l.Steps()
	}
	polls, now, steps := run(false, 0)
	if polls > 2 {
		t.Errorf("%d polls over %d dormant conditional yields, want a constant (start, halt)", polls, iters)
	}
	const slice = 97
	if p, n, s := run(false, slice); n != now || s != steps || uint64(p) > now/slice+2 {
		t.Errorf("sliced run: %d polls, cycle %d, %d steps; unsliced %d, %d, %d", p, n, s, polls, now, steps)
	}
	obsPolls, obsNow, obsSteps := run(true, 0)
	if obsPolls != polls || obsNow != now || obsSteps != steps {
		t.Errorf("observer path: %d polls, cycle %d, %d steps; fast path %d, %d, %d", obsPolls, obsNow, obsSteps, polls, now, steps)
	}
}

// arrivalSource is a minimal open-loop AsymSource: ring[0] is a worker
// slot armed with a pointer chase at each arrival cycle, ring[1:] are
// compute loops that never finish — shadow fillers, and ring[1] the idle
// fill between requests. An arrival that finds the slot busy waits for
// its halt.
type arrivalSource struct {
	core     *cpu.Core
	ring     []*Task
	arrivals []uint64
	head     uint64
	next     int // arrivals[next:] not yet admitted
	served   int
	scavIdx  int
	polls    int
}

func (s *arrivalSource) Pending() bool { return s.served < len(s.arrivals) }

func (s *arrivalSource) Poll() uint64 {
	s.polls++
	now := s.core.Now
	if slot := s.ring[0]; s.next < len(s.arrivals) && s.arrivals[s.next] <= now && slot.Ctx.Halted {
		slot.Ctx.Regs[1], slot.Ctx.Regs[3] = s.head, 12
		slot.Ctx.PC = s.core.Prog.Symbols["chase"]
		slot.Ctx.Halted = false
		slot.Ctx.LastPrefetchValid = false
		slot.Reset()
		s.next++
	}
	for _, a := range s.arrivals[s.next:] {
		if a > now {
			return a
		}
	}
	return NoHorizon
}

func (s *arrivalSource) OnHalt(i int) (bool, error) {
	if i == 0 {
		s.served++
	}
	return true, nil
}

func (s *arrivalSource) Primary() int {
	if s.ring[0].Ctx.Halted {
		return -1
	}
	return 0
}

func (s *arrivalSource) NextScavenger(exclude int) int {
	n := len(s.ring) - 1
	for off := 0; off < n; off++ {
		if i := 1 + (s.scavIdx+off)%n; i != exclude {
			s.scavIdx = (s.scavIdx + off + 1) % n
			return i
		}
	}
	return -1
}

func (s *arrivalSource) IdleFill() int { return 1 }

// openLoopAsymRun serves eight widely spaced requests through the Asym
// loop over an arrivalSource and returns the scheduling trace, the
// source and the final clock.
func openLoopAsymRun(t *testing.T, observe bool) ([]trace.Event, *arrivalSource, uint64) {
	t.Helper()
	core, m := newMachine(t, testImage, 8<<20)
	ring := trace.NewRing(1 << 14)
	cfg := DefaultConfig()
	cfg.Tracer = ring
	e := New(core, cfg)
	if observe {
		core.Observe(&countingObserver{})
	}
	slot := chaseTask(core, m, 0, 0, 0)
	slot.Ctx.Halted = true // parked until the first arrival
	src := &arrivalSource{
		core: core,
		ring: []*Task{slot, scavTask(core, m, 1, 1<<40), scavTask(core, m, 2, 1<<40)},
		head: buildChain(m, 512, 31),
	}
	for i := uint64(0); i < 8; i++ {
		src.arrivals = append(src.arrivals, 1003+i*9001)
	}
	if _, err := e.NewAsym(src.ring, src).Run(NoDeadline); err != nil {
		t.Fatal(err)
	}
	if src.served != len(src.arrivals) {
		t.Fatalf("served %d of %d requests", src.served, len(src.arrivals))
	}
	return ring.Events(), src, core.Now
}

// The Asym loop must hand the CPU back at the cycle it always did: inside
// an episode at the first conditional yield at or past epStart+epTarget,
// and while idle-filling at the first one after a primary arrives. The
// scavengers yield every scavPeriod cycles, so "first" is checkable from
// the trace: the yield one period earlier must fall before the moment
// the loop started caring (or before the scavenger was even resumed).
func TestAsymHandsBackAtFirstYieldThatMatters(t *testing.T) {
	evs, src, _ := openLoopAsymRun(t, false)

	var (
		episodes, handovers int
		inEpisode           bool
		wakeAt, resumedAt   uint64
		nextArrival         int
	)
	for _, ev := range evs {
		switch {
		case ev.Kind == trace.EpisodeStart:
			inEpisode, wakeAt = true, ev.Now+ev.Arg
		case ev.Kind == trace.EpisodeEnd:
			inEpisode = false
		case ev.Kind == trace.Resume && ev.Ctx != 0:
			resumedAt = ev.Now
		case ev.Kind == trace.SwitchOut && ev.Ctx != 0:
			yieldAt := ev.Now - ev.Arg // the switch cost is charged after the yield retires
			if !inEpisode {
				// Idle fill handing over to the request that just arrived.
				wakeAt = src.arrivals[nextArrival]
				nextArrival++
				handovers++
			} else {
				episodes++
			}
			if yieldAt < wakeAt {
				t.Fatalf("ctx %d handed back at cycle %d, before the loop wanted it (%d)", ev.Ctx, yieldAt, wakeAt)
			}
			if prev := yieldAt - scavPeriod; prev >= wakeAt && prev > resumedAt {
				t.Fatalf("ctx %d handed back at cycle %d, but its yield at %d was already past %d", ev.Ctx, yieldAt, prev, wakeAt)
			}
		}
	}
	if episodes == 0 || handovers != len(src.arrivals) {
		t.Fatalf("trace shows %d episode hand-backs and %d idle-fill hand-overs for %d requests", episodes, handovers, len(src.arrivals))
	}
}

// The open-loop twin of TestObserverFallbackMatchesFastPath: with idle
// fill and arrivals in play, the fast path and the observer path — both
// polling per arrival and per halt, never at a dormant conditional
// yield — must produce the same scheduling trace from the same polls.
func TestAsymOpenLoopObserverMatchesFastPath(t *testing.T) {
	fastTrace, fastSrc, fastNow := openLoopAsymRun(t, false)
	obsTrace, obsSrc, obsNow := openLoopAsymRun(t, true)
	if !reflect.DeepEqual(fastTrace, obsTrace) || fastNow != obsNow {
		t.Fatalf("fast vs observer diverge: %d events ending at cycle %d vs %d ending at %d",
			len(fastTrace), fastNow, len(obsTrace), obsNow)
	}
	// Yields outnumber scheduling events by orders of magnitude; the polls
	// must scale with the events, on both paths alike.
	if fastSrc.polls > len(fastTrace) || obsSrc.polls != fastSrc.polls {
		t.Errorf("fast path polled %d times, observer path %d, over %d scheduling events",
			fastSrc.polls, obsSrc.polls, len(fastTrace))
	}
}
