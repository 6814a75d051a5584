package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer: name is "layer.call", times are
// nanoseconds since the recorder's epoch, parent indexes the span that
// caused it (-1 for a root) and rep identifies the repetition all spans
// of one rep share.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Rep    int
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span is charged to: the part of its name before
// the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory; they are written out once, at exit.
// A nil recorder records nothing, so the untraced pass runs the same
// code with only a nil check around each timed call. The benchmark
// drives every layer from one goroutine, so the open-span stack needs
// no lock.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	rep   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: r.rep, Start: int64(time.Since(r.epoch))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children are clipped
// to the parent and overlapping siblings are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf folds self times by layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].layer()] += t
	}
	return out
}

// durations lists the durations of every span called name, in
// nanoseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X"
// complete events, µs timestamps), loadable in Perfetto or
// chrome://tracing. The parent index and rep id ride in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
