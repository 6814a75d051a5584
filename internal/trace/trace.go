// Package trace records executor-level scheduling events — switches,
// yields, hide episodes, halts — into a bounded ring for debugging and
// for inspecting dual-mode behaviour. The runtime emits events through
// the Tracer interface.
//
// # The nil-tracer fast path
//
// Tracing is off by default: an exec.Config with a nil Tracer is the
// common case, and every emission site in the executor guards the
// interface call with a single nil check (see Executor.emit). No Event
// is constructed and nothing escapes to the heap on that path, so an
// untraced run pays one predictable branch per scheduling event and
// nothing more. Code that emits events must preserve this property:
// never build an Event before checking the tracer for nil.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	// SwitchOut: a coroutine yielded and was switched away from.
	SwitchOut Kind = iota
	// Resume: a coroutine was switched back in.
	Resume
	// EpisodeStart: a primary yield opened a hide window.
	EpisodeStart
	// EpisodeEnd: control returned to the primary.
	EpisodeEnd
	// Chain: a scavenger handed off to another scavenger.
	Chain
	// Halt: a coroutine completed.
	Halt
	// Skip: a §4.1 presence probe suppressed a yield.
	Skip
)

func (k Kind) String() string {
	switch k {
	case SwitchOut:
		return "switch-out"
	case Resume:
		return "resume"
	case EpisodeStart:
		return "episode-start"
	case EpisodeEnd:
		return "episode-end"
	case Chain:
		return "chain"
	case Halt:
		return "halt"
	case Skip:
		return "skip"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduling occurrence.
type Event struct {
	Kind Kind
	// Now is the global cycle at the event.
	Now uint64
	// Ctx is the coroutine's context ID.
	Ctx int
	// PC is the program counter at the event (where meaningful).
	PC int
	// Arg carries kind-specific detail: hide target for EpisodeStart,
	// away-time for EpisodeEnd, switch cost for SwitchOut.
	Arg uint64
	// Core is the simulated core that emitted the event; the many-core
	// machine stamps it, single-core runs leave it 0.
	Core int
}

// String renders the event as one dump line. Events from cores other
// than 0 end in their core index, so single-core dumps carry no core
// column while many-core dumps still tell the cores apart.
func (e Event) String() string {
	s := fmt.Sprintf("[%10d] ctx%-3d pc=%-6d %-14s arg=%d", e.Now, e.Ctx, e.PC, e.Kind, e.Arg)
	if e.Core != 0 {
		s = fmt.Sprintf("%s core=%d", s, e.Core)
	}
	return s
}

// Tracer receives events.
type Tracer interface {
	Emit(Event)
}

// OnCore returns a tracer that stamps core on every event it forwards
// to t, so the cores of one machine share a tracer and still draw their
// own Perfetto rows. A nil t stays nil, keeping the untraced fast path.
func OnCore(t Tracer, core int) Tracer {
	if t == nil {
		return nil
	}
	return coreTracer{core: core, next: t}
}

// coreTracer is OnCore's adapter.
type coreTracer struct {
	core int
	next Tracer
}

// Emit implements Tracer.
func (t coreTracer) Emit(e Event) {
	e.Core = t.core
	t.next.Emit(e)
}

// Ring is a bounded in-memory tracer keeping the most recent events.
type Ring struct {
	buf   []Event
	pos   int
	full  bool
	total uint64
}

// NewRing creates a tracer retaining up to n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	r.buf[r.pos] = e
	r.pos = (r.pos + 1) % len(r.buf)
	if r.pos == 0 {
		r.full = true
	}
	r.total++
}

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 { return r.total }

// Reset empties the ring without reallocating its buffer, so a single
// Ring can be reused across executor runs (the parallel runner resets
// per-job tracers instead of constructing new ones).
func (r *Ring) Reset() {
	r.pos = 0
	r.full = false
	r.total = 0
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.pos]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.pos:]...)
	out = append(out, r.buf[:r.pos]...)
	return out
}

// CountByKind tallies retained events per kind.
func (r *Ring) CountByKind() map[Kind]int {
	m := map[Kind]int{}
	for _, e := range r.Events() {
		m[e.Kind]++
	}
	return m
}

// Dump writes the retained events as text.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a one-line per-kind tally.
func (r *Ring) Summary() string {
	counts := r.CountByKind()
	var parts []string
	for k := Kind(0); k <= Skip; k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return fmt.Sprintf("%d events retained (%d total): %s",
		len(r.Events()), r.total, strings.Join(parts, " "))
}
