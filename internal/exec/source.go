package exec

import (
	"repro/internal/cpu"
	"repro/internal/trace"
)

// NoDeadline and NoHorizon are the "never" cycle: a Run deadline that
// runs to completion, and a Poll result meaning no arrival is pending.
const (
	NoDeadline = ^uint64(0)
	NoHorizon  = ^uint64(0)
)

// Loop is what every scheduling loop — Flat, Asym, SMT — offers its
// driver. Run advances until the core clock reaches deadline (done=false:
// call again with a later one) or the source has nothing pending
// (done=true); a later call picks up exactly where the last stopped, so
// slicing a run at any deadlines is byte-identical to running it
// unsliced. Steps is the instructions retired so far.
type Loop interface {
	Run(deadline uint64) (done bool, err error)
	Steps() uint64
}

// Source is what a scheduling loop asks of whoever feeds it. The loop
// owns the discipline — who holds the CPU, when to switch — over a ring
// of entities in which an entity is runnable iff its context has not
// halted. The source owns the supply: a closed-loop source is a fixed
// task set that only shrinks, an open-loop source (internal/service) is
// an arrival-fed slot pool that re-arms ring entries in place.
//
// Hooks fire only where a loop already stops — a RunBlock return or an
// idle advance — never per instruction. They are interface calls, which
// the static call graph does not follow: every implementation carries
// its own //shsim:cycle-entry and //shsim:quantum-phase roots.
type Source interface {
	// Pending reports whether the run has more to do.
	Pending() bool
	// Poll admits whatever is due at the current cycle, arming free ring
	// entries, and returns the cycle of the next arrival — strictly in
	// the future — or NoHorizon. Loops clip busy budgets and idle
	// advances to it. It is called whenever a loop regains control at a
	// scheduling boundary — halt, yield, arrival, idle — and never after
	// a bare deadline cut, which is what keeps a sliced run identical to
	// the unsliced one.
	//
	// Poll must be idempotent: called again before the clock reaches the
	// cycle it returned, with no OnHalt in between, it changes nothing —
	// no counter, queue or ring entry, nor what Pending and Primary
	// answer — and returns that cycle again. The coroutine loops rely on
	// it to let a conditional yield nobody would act on retire without
	// the Poll it used to cost.
	Poll() uint64
	// OnHalt retires ring entity i, whose context just halted. resched
	// reports whether the halt is a scheduling boundary: open-loop
	// sources say yes (rotate on, or hand back to a waiting primary),
	// closed-loop ones no (keep the CPU while the entry stays runnable,
	// keep filling the shadow until a conditional yield).
	OnHalt(i int) (resched bool, err error)
}

// AsymSource additionally answers the dual-mode loop's questions about
// priority.
type AsymSource interface {
	Source
	// Primary is the ring entity whose latency matters now, or -1.
	Primary() int
	// NextScavenger picks the next shadow-filler other than exclude
	// (-1 excludes nobody), or -1.
	NextScavenger(exclude int) int
	// IdleFill picks background work for a core with no primary, or -1.
	IdleFill() int
}

// FixedSet is a Ticker's closed-loop source: the ring's entities run to
// halt and the set shrinks to nothing.
type FixedSet struct {
	// Start is the cycle the run began at; Latencies[i] is how long
	// after it ring entity i halted (nil = not recorded).
	Start     uint64
	Latencies []uint64

	core    *cpu.Core
	running int
}

// NewFixedSet prepares a closed run, starting now, of a ring in which
// running entities have not already halted; latencies (one per ring
// entity, or nil) receives their halt times.
func NewFixedSet(core *cpu.Core, running int, latencies []uint64) *FixedSet {
	return &FixedSet{Start: core.Now, Latencies: latencies, core: core, running: running}
}

//shsim:cycle-entry
//shsim:quantum-phase
func (s *FixedSet) Pending() bool { return s.running > 0 }

//shsim:cycle-entry
//shsim:quantum-phase
func (s *FixedSet) Poll() uint64 { return NoHorizon }

//shsim:cycle-entry
//shsim:quantum-phase
func (s *FixedSet) OnHalt(i int) (bool, error) {
	if s.Latencies != nil {
		s.Latencies[i] = s.core.Now - s.Start
	}
	s.running--
	return false, nil
}

// window is RunWindowed's source: a halted ring entry is replaced in
// place by the next task of the stream and keeps the CPU; once the
// stream runs dry the ring drains like a fixed set.
type window struct {
	e      *Executor
	ring   []*Task
	stream []*Task // not yet admitted
	live   int     // ring entries still holding work
}

//shsim:cycle-entry
func (w *window) Pending() bool { return w.live > 0 }

//shsim:cycle-entry
func (w *window) Poll() uint64 { return NoHorizon }

//shsim:cycle-entry
func (w *window) OnHalt(i int) (bool, error) {
	w.e.emit(trace.Halt, w.ring[i], 0)
	if len(w.stream) > 0 {
		w.ring[i], w.stream = w.stream[0], w.stream[1:]
	} else {
		w.live--
	}
	return false, nil
}

// dualSet is RunDualMode's source: ring[0] is the fixed primary, the
// rest a scavenger pool rotated by scavIdx, skipping halted entries.
// The run ends when the primary halts.
type dualSet struct {
	core           *cpu.Core
	ring           []*Task
	start          uint64
	scavIdx        int
	primaryLatency uint64
}

//shsim:cycle-entry
func (s *dualSet) Pending() bool { return !s.ring[0].Ctx.Halted }

//shsim:cycle-entry
func (s *dualSet) Poll() uint64 { return NoHorizon }

//shsim:cycle-entry
func (s *dualSet) OnHalt(i int) (bool, error) {
	if i == 0 {
		s.primaryLatency = s.core.Now - s.start
	}
	return false, nil
}

//shsim:cycle-entry
func (s *dualSet) Primary() int {
	if s.ring[0].Ctx.Halted {
		return -1
	}
	return 0
}

//shsim:cycle-entry
func (s *dualSet) NextScavenger(exclude int) int {
	n := len(s.ring) - 1
	for off := 0; off < n; off++ {
		i := 1 + (s.scavIdx+off)%n
		if i != exclude && !s.ring[i].Ctx.Halted {
			s.scavIdx = (s.scavIdx + off + 1) % n
			return i
		}
	}
	return -1
}

//shsim:cycle-entry
func (s *dualSet) IdleFill() int { return -1 }
