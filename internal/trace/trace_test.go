package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: SwitchOut, Now: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Now != 2 || evs[2].Now != 4 {
		t.Errorf("wrong window: %v", evs)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Emit(Event{Kind: Halt, Now: 1})
	r.Emit(Event{Kind: Resume, Now: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != Halt {
		t.Errorf("partial ring wrong: %v", evs)
	}
}

func TestCountByKindAndSummary(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{Kind: EpisodeStart})
	r.Emit(Event{Kind: EpisodeEnd})
	r.Emit(Event{Kind: EpisodeEnd})
	counts := r.CountByKind()
	if counts[EpisodeStart] != 1 || counts[EpisodeEnd] != 2 {
		t.Errorf("counts: %v", counts)
	}
	s := r.Summary()
	if !strings.Contains(s, "episode-end=2") {
		t.Errorf("summary: %s", s)
	}
}

func TestDump(t *testing.T) {
	r := NewRing(4)
	r.Emit(Event{Kind: Chain, Now: 42, Ctx: 1, PC: 7, Arg: 9})
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "chain") || !strings.Contains(out, "42") {
		t.Errorf("dump: %s", out)
	}
	if strings.Contains(out, "core") {
		t.Errorf("core-0 dump names a core: %s", out)
	}
	if s := (Event{Kind: Halt, Core: 3}).String(); !strings.HasSuffix(s, " core=3") {
		t.Errorf("core-3 event %q does not end in its core", s)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k <= Skip; k++ {
		if k.String() == "" {
			t.Errorf("kind %d empty", k)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: SwitchOut, Now: uint64(i)})
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Total() != 0 {
		t.Errorf("reset ring not empty: %d events, total %d", len(r.Events()), r.Total())
	}
	// The ring must behave exactly like a fresh one after Reset.
	r.Emit(Event{Kind: Halt, Now: 100})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Now != 100 || r.Total() != 1 {
		t.Errorf("reused ring wrong: %v total=%d", evs, r.Total())
	}
}

func TestNewRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Emit(Event{Kind: Halt})
	if len(r.Events()) != 1 {
		t.Error("ring of zero should clamp to one")
	}
}
