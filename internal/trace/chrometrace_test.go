package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRingEventsExactlyFull pins the wraparound boundary: a ring that
// has received exactly its capacity must return every event, oldest
// first, not an empty or doubled slice (pos has wrapped to 0 and full
// is set — the two halves of the copy are [pos:] = everything and
// [:pos] = nothing).
func TestRingEventsExactlyFull(t *testing.T) {
	const n = 8
	r := NewRing(n)
	for i := 0; i < n; i++ {
		r.Emit(Event{Kind: Resume, Now: uint64(i), Ctx: i})
	}
	got := r.Events()
	if len(got) != n {
		t.Fatalf("exactly-full ring returned %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Now != uint64(i) || e.Ctx != i {
			t.Fatalf("event %d = %+v, want Now=%d Ctx=%d (oldest first)", i, e, i, i)
		}
	}
	if r.Total() != n {
		t.Errorf("Total = %d, want %d", r.Total(), n)
	}
	// One more emission must evict exactly the oldest.
	r.Emit(Event{Kind: Resume, Now: n, Ctx: n})
	got = r.Events()
	if len(got) != n || got[0].Now != 1 || got[n-1].Now != n {
		t.Fatalf("after wrap: got %d events, first Now=%d last Now=%d; want %d, 1, %d",
			len(got), got[0].Now, got[len(got)-1].Now, n, n)
	}
}

// traceEvents runs a representative event sequence through the exporter
// and decodes the result.
func traceEvents(t *testing.T, opt ChromeTraceOptions) []map[string]any {
	t.Helper()
	events := []Event{
		{Kind: EpisodeStart, Now: 1000, Ctx: 0, PC: 4, Arg: 360},
		{Kind: SwitchOut, Now: 1000, Ctx: 0, PC: 4, Arg: 30},
		{Kind: Resume, Now: 1030, Ctx: 1, PC: 10},
		{Kind: Chain, Now: 1200, Ctx: 1, PC: 12},
		{Kind: Halt, Now: 1390, Ctx: 1, PC: 15},
		{Kind: EpisodeEnd, Now: 1400, Ctx: 0, PC: 4, Arg: 400},
		{Kind: Skip, Now: 1500, Ctx: 0, PC: 4},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, opt); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exporter did not produce a JSON array of events: %v", err)
	}
	return decoded
}

// TestChromeTraceSchema validates the export against the Chrome
// trace-event format's array-of-events form: every entry needs a name,
// a known phase letter, numeric ts/pid/tid, and phase-specific extras
// (dur on "X", scope on "i", args.name on "M").
func TestChromeTraceSchema(t *testing.T) {
	decoded := traceEvents(t, ChromeTraceOptions{})
	if len(decoded) == 0 {
		t.Fatal("empty trace")
	}
	var complete, instants, meta int
	for i, ev := range decoded {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event %d: missing ph: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d: missing numeric pid: %v", i, ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event %d: missing numeric tid: %v", i, ev)
		}
		switch ph {
		case "X":
			complete++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d: complete event needs ts >= 0: %v", i, ev)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
				t.Fatalf("event %d: complete event needs dur > 0: %v", i, ev)
			}
		case "i":
			instants++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d: instant needs ts: %v", i, ev)
			}
			if s, ok := ev["s"].(string); !ok || s != "t" {
				t.Fatalf("event %d: instant needs thread scope: %v", i, ev)
			}
		case "M":
			meta++
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Fatalf("event %d: metadata needs args: %v", i, ev)
			}
			if _, ok := args["name"].(string); !ok {
				t.Fatalf("event %d: metadata needs args.name: %v", i, ev)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
	}
	// process_name + two thread_names, one episode slice, six instants
	// (episode-start, switch-out, resume, chain, halt, skip).
	if meta != 3 || complete != 1 || instants != 6 {
		t.Errorf("got %d metadata / %d complete / %d instant events, want 3/1/6",
			meta, complete, instants)
	}
}

// TestChromeTraceEpisodeSlice checks the cycle→µs conversion and the
// reconstruction of a complete slice from an EpisodeEnd alone.
func TestChromeTraceEpisodeSlice(t *testing.T) {
	decoded := traceEvents(t, ChromeTraceOptions{CyclesPerMicro: 1000, Pid: 3})
	for _, ev := range decoded {
		if ev["ph"] != "X" {
			continue
		}
		// EpisodeEnd at cycle 1400 with away=400 → slice [1.0µs, 1.4µs].
		if ts := ev["ts"].(float64); ts != 1.0 {
			t.Errorf("episode ts = %v µs, want 1.0", ts)
		}
		if dur := ev["dur"].(float64); dur != 0.4 {
			t.Errorf("episode dur = %v µs, want 0.4", dur)
		}
		if pid := ev["pid"].(float64); pid != 3 {
			t.Errorf("pid = %v, want 3", pid)
		}
		args := ev["args"].(map[string]any)
		if args["away_cycles"].(float64) != 400 {
			t.Errorf("args.away_cycles = %v, want 400", args["away_cycles"])
		}
		return
	}
	t.Fatal("no complete episode slice in export")
}

// TestChromeTraceProcessPerCore: events of core c land in process row
// Pid + c, each core's row and its context threads named once, while a
// core-0-only export keeps its single "softhide sim" process.
func TestChromeTraceProcessPerCore(t *testing.T) {
	events := []Event{
		{Kind: Resume, Now: 10, Ctx: 0},
		{Kind: Resume, Now: 10, Ctx: 0, Core: 1},
		{Kind: Halt, Now: 20, Ctx: 0, Core: 1},
		{Kind: Halt, Now: 30, Ctx: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, ChromeTraceOptions{Pid: 5}); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	procs := map[float64]string{}
	threads, marks := map[float64]int{}, map[float64]int{}
	for _, ev := range decoded {
		pid := ev["pid"].(float64)
		switch ev["name"] {
		case "process_name":
			procs[pid] = ev["args"].(map[string]any)["name"].(string)
		case "thread_name":
			threads[pid]++
		default:
			marks[pid]++
		}
	}
	want := map[float64]string{5: "softhide sim", 6: "softhide sim core 1"}
	if len(procs) != 2 || procs[5] != want[5] || procs[6] != want[6] {
		t.Errorf("process rows %v, want %v", procs, want)
	}
	if threads[5] != 1 || threads[6] != 1 || marks[5] != 2 || marks[6] != 2 {
		t.Errorf("per-pid threads %v and marks %v, want one thread and two marks per core", threads, marks)
	}
}
