package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 62, 63}, {^uint64(0), 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
		if h.Buckets[c.bucket] == 0 {
			t.Errorf("Observe(%d) did not land in bucket %d", c.v, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || (c.bucket < 64 && c.v >= hi) {
			t.Errorf("bucket %d bounds [%d,%d) exclude its own value %d", c.bucket, lo, hi, c.v)
		}
	}
	if h.Count != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count, len(cases))
	}
	var sum uint64
	for _, b := range h.Buckets {
		sum += b
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != Count %d", sum, h.Count)
	}
	if h.Min != 0 || h.Max != ^uint64(0) {
		t.Errorf("Min/Max = %d/%d", h.Min, h.Max)
	}
}

func TestHistMeanAndQuantile(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty hist should report zeros")
	}
	for i := 0; i < 100; i++ {
		h.Observe(100) // all in bucket 7: [64,128)
	}
	if h.Mean() != 100 {
		t.Errorf("Mean = %v, want 100", h.Mean())
	}
	if q := h.Quantile(0.5); q != 128 {
		t.Errorf("Quantile(0.5) = %d, want bucket upper bound 128", q)
	}
	// A rank below one is the first observation, not the empty bucket 0.
	if q := h.Quantile(0.001); q != 128 {
		t.Errorf("Quantile(0.001) = %d, want bucket upper bound 128", q)
	}
	h.Reset()
	if h.Count != 0 || h.Sum != 0 {
		t.Error("Reset did not zero the hist")
	}
}

func TestNoteEpisodeReconciles(t *testing.T) {
	var x Exec
	x.NoteEpisode(300, 300) // exactly covered
	x.NoteEpisode(500, 300) // 200 overshoot
	x.NoteEpisode(100, 300) // under target: covered == away
	if x.Episodes != 3 || x.EpisodeDur.Count != 3 || x.EpisodeCover.Count != 3 {
		t.Fatalf("episode totals do not reconcile: %d / %d / %d",
			x.Episodes, x.EpisodeDur.Count, x.EpisodeCover.Count)
	}
	if x.EpisodeCycles != 900 {
		t.Errorf("EpisodeCycles = %d, want 900", x.EpisodeCycles)
	}
	if x.HiddenCycles != 300+300+100 {
		t.Errorf("HiddenCycles = %d, want 700", x.HiddenCycles)
	}
	if x.OvershootCycles != 200 {
		t.Errorf("OvershootCycles = %d, want 200", x.OvershootCycles)
	}
}

func TestSnapshotTableAndMetrics(t *testing.T) {
	var r Registry
	r.Exec.NoteEpisode(450, 300)
	r.Mem.Accesses[mem.LevelDRAM] = 7
	r.CPU.Retired = 1234
	snap := r.Snapshot()

	// The registry keeps counting after the snapshot; the copy must not.
	r.Exec.NoteEpisode(10, 10)
	if snap.Exec.Episodes != 1 {
		t.Fatalf("snapshot aliases the registry: episodes = %d", snap.Exec.Episodes)
	}

	for v := uint64(1); v <= 1000; v++ {
		snap.Service.Sojourn.Observe(v)
	}
	for range 10 {
		snap.Service.Sojourn.Observe(1_000_000) // p999 lands out here
	}
	tbl := snap.Table().String()
	for _, want := range []string{"episodes", "mshr_high_water", "dram_accesses", "episode_dur_total", "request_latency_total"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("snapshot table missing %q:\n%s", want, tbl)
		}
	}
	// Each tail row holds its own quantile's bound.
	for _, row := range []struct {
		domain, name string
		want         uint64
	}{
		{"exec", "episode_dur_p50_le", snap.Exec.EpisodeDur.Quantile(0.50)},
		{"exec", "episode_dur_p99_le", snap.Exec.EpisodeDur.Quantile(0.99)},
		{"service", "sojourn_p50_le", snap.Service.Sojourn.Quantile(0.50)},
		{"service", "sojourn_p99_le", snap.Service.Sojourn.Quantile(0.99)},
		{"service", "sojourn_p999_le", snap.Service.Sojourn.Quantile(0.999)},
		{"service", "sojourn[960,992)", 32},
	} {
		want := fmt.Sprint(" ", row.domain, " ", row.name, " ", row.want, " ")
		if !strings.Contains(" "+strings.Join(strings.Fields(tbl), " ")+" ", want) {
			t.Errorf("snapshot table lacks row %q:\n%s", want, tbl)
		}
	}

	m := map[string]float64{}
	snap.Metrics(m)
	if m["obs.exec.episodes"] != 1 || m["obs.cpu.retired"] != 1234 || m["obs.mem.dram_accesses"] != 7 {
		t.Errorf("flattened metrics wrong: %v", m)
	}
	for k := range m {
		if !strings.HasPrefix(k, "obs.") {
			t.Errorf("metric key %q lacks the obs. prefix", k)
		}
	}
}

// TestEveryRowReadsItsField: with a distinct value in every counter of
// the mem, cpu and machine sections, each table row and each obs.* key
// holds the one source field its name stands for. Thirteen mem rows
// read the hierarchy's own Stats block, five of them through
// Accesses[level], so a row reading its neighbour's level shows here.
func TestEveryRowReadsItsField(t *testing.T) {
	var r Registry
	next := uint64(100)
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next++
		case reflect.Array:
			for i := range f.Len() {
				fill(f.Index(i))
			}
		case reflect.Struct:
			for i := range f.NumField() {
				fill(f.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(&r.Mem).Elem())
	fill(reflect.ValueOf(&r.CPU).Elem())
	fill(reflect.ValueOf(&r.Machine).Elem())

	m, c, x := &r.Mem, &r.CPU, &r.Machine
	want := []struct {
		domain, name string
		v            uint64
	}{
		{"mem", "l1_hits", m.Accesses[mem.LevelL1]},
		{"mem", "l2_hits", m.Accesses[mem.LevelL2]},
		{"mem", "l3_hits", m.Accesses[mem.LevelL3]},
		{"mem", "dram_accesses", m.Accesses[mem.LevelDRAM]},
		{"mem", "inflight_hits", m.Accesses[mem.LevelInflight]},
		{"mem", "inflight_full", m.InflightFull},
		{"mem", "l2_misses", m.Accesses[mem.LevelL3] + m.Accesses[mem.LevelDRAM]},
		{"mem", "prefetches", m.Prefetches},
		{"mem", "prefetch_hits", m.PrefetchHits},
		{"mem", "hw_prefetches", m.HWPrefetches},
		{"mem", "mshr_drops", m.MSHRDrops},
		{"mem", "mshr_high_water", m.MSHRPeak},
		{"mem", "writebacks", m.Writebacks},
		{"cpu", "retired", c.Retired},
		{"cpu", "busy_cycles", c.Busy},
		{"cpu", "stall_cycles", c.Stall},
		{"cpu", "faults", c.Faults},
		{"machine", "cores", x.Cores},
		{"machine", "quanta", x.Quanta},
		{"machine", "cycles", x.Cycles},
		{"machine", "llc_hits", x.LLC.Hits},
		{"machine", "llc_misses", x.LLC.Misses},
		{"machine", "llc_queued", x.LLC.Queued},
		{"machine", "llc_queue_cycles", x.LLC.QueueCycles},
		{"machine", "llc_peak_bank_load", x.LLC.PeakBankLoad},
		{"machine", "retired", x.Retired},
		{"machine", "busy_cycles", x.BusyCycles},
		{"machine", "stall_cycles", x.StallCycles},
	}

	var tbl struct{ Rows [][]string }
	data, err := json.Marshal(r.Snapshot().Table())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tbl); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, row := range tbl.Rows {
		rows[row[0]+"."+row[1]] = row[2]
	}
	obs := map[string]float64{}
	r.Snapshot().Metrics(obs)
	for _, w := range want {
		key := w.domain + "." + w.name
		if got := rows[key]; got != strconv.FormatUint(w.v, 10) {
			t.Errorf("table row %s = %q, want %d", key, got, w.v)
		}
		if got := obs["obs."+key]; got != float64(w.v) {
			t.Errorf("obs.%s = %v, want %d", key, got, w.v)
		}
	}
	// The three sections render exactly these rows, no more.
	n := 0
	for key := range rows {
		if d, _, _ := strings.Cut(key, "."); d == "mem" || d == "cpu" || d == "machine" {
			n++
		}
	}
	if n != len(want) {
		t.Errorf("mem, cpu and machine render %d rows, want %d", n, len(want))
	}
}

// TestBumpPathsAllocFree guards the inline-uint64 rule: every operation
// a cycle-domain layer performs against the registry — histogram
// observes, episode notes, snapshot copies — is allocation-free.
func TestBumpPathsAllocFree(t *testing.T) {
	var r Registry
	var snap Snapshot
	allocs := testing.AllocsPerRun(200, func() {
		r.Exec.NoteEpisode(450, 300)
		r.Exec.Chains++
		r.Sched.RequestLatency.Observe(900)
		r.Mem.Writebacks++
		snap = r.Snapshot()
	})
	if allocs != 0 {
		t.Errorf("registry bump path allocated %.1f times per run, want 0", allocs)
	}
	_ = snap
}
