package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeTraceOptions tunes the trace-event export.
type ChromeTraceOptions struct {
	// CyclesPerMicro converts simulated cycles to trace microseconds.
	// Defaults to 3000 (a 3 GHz clock) when zero. Perfetto's timeline is
	// microsecond-based, so without a conversion a cycle-domain trace
	// would span "seconds" of UI time per millisecond simulated.
	CyclesPerMicro uint64
	// Pid labels the process row in the viewer. Useful when merging
	// exports from several runs into one file. Each core gets its own
	// process row, pid Pid + Event.Core.
	Pid int
}

// chromeEvent is one entry of the Chrome trace-event format's
// array-of-events form, loadable by chrome://tracing and Perfetto.
// Field names and phase letters are fixed by that format:
// ph "X" = complete (ts+dur), "i" = instant, "M" = metadata.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace converts executor trace events into Chrome
// trace-event JSON (the array-of-events form) on w.
//
// Hide episodes become "X" (complete) slices on the primary's thread
// row: an EpisodeEnd event carries the away-time in Arg, so each one
// yields a closed slice even when the ring's bounded retention dropped
// the matching EpisodeStart. Every other kind becomes a thread-scoped
// "i" (instant) mark on its context's row, with the cycle-domain detail
// (cycle stamp, PC, kind-specific arg) preserved under args. Metadata
// ("M") records name the process and per-context threads so the viewer
// shows "ctx N" rows instead of bare thread IDs. Events of core c land
// in process row Pid + c, so a many-core trace shows one process per
// core; core 0's row is always present.
func WriteChromeTrace(w io.Writer, events []Event, opt ChromeTraceOptions) error {
	cpm := opt.CyclesPerMicro
	if cpm == 0 {
		cpm = 3000
	}
	us := func(cycles uint64) float64 { return float64(cycles) / float64(cpm) }

	out := make([]chromeEvent, 0, len(events)+8)
	process := func(core int) {
		name := "softhide sim"
		if core != 0 {
			name = fmt.Sprintf("softhide sim core %d", core)
		}
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", Pid: opt.Pid + core,
			Args: map[string]any{"name": name},
		})
	}
	process(0)
	seenCore := map[int]bool{0: true}
	seenCtx := map[[2]int]bool{}
	for _, e := range events {
		pid := opt.Pid + e.Core
		if !seenCore[e.Core] {
			seenCore[e.Core] = true
			process(e.Core)
		}
		if row := [2]int{e.Core, e.Ctx}; !seenCtx[row] {
			seenCtx[row] = true
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: e.Ctx,
				Args: map[string]any{"name": fmt.Sprintf("ctx %d", e.Ctx)},
			})
		}
		args := map[string]any{"cycle": e.Now, "pc": e.PC}
		switch e.Kind {
		case EpisodeEnd:
			// Arg is the away-time: reconstruct the whole slice from the
			// end event alone.
			args["away_cycles"] = e.Arg
			out = append(out, chromeEvent{
				Name: "hide episode", Phase: "X",
				TS: us(e.Now - e.Arg), Dur: us(e.Arg),
				Pid: pid, Tid: e.Ctx, Args: args,
			})
		case EpisodeStart:
			// The matching EpisodeEnd draws the slice; keep the start as
			// an instant so the hide target stays visible.
			args["hide_target"] = e.Arg
			out = append(out, instant(e, us, pid, args))
		case SwitchOut:
			args["switch_cost"] = e.Arg
			out = append(out, instant(e, us, pid, args))
		default:
			out = append(out, instant(e, us, pid, args))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func instant(e Event, us func(uint64) float64, pid int, args map[string]any) chromeEvent {
	return chromeEvent{
		Name: e.Kind.String(), Phase: "i", TS: us(e.Now),
		Pid: pid, Tid: e.Ctx, Scope: "t", Args: args,
	}
}
