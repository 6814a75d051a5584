package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/service"
)

// fixtureDir holds cache entries written at the current cacheSchema:
// E1's and one served cell's. Later changes that claim observational
// equivalence must keep serving these entries — and the served bytes
// must match what the current implementation computes. If an entry
// misses, the cache key (schema, ID, machine or key shape) drifted; if
// the bytes differ, the simulator's observable behaviour changed and
// cacheSchema should have been bumped.
//
// History: the fixture was regenerated at schema 6, when a served
// cell's entry started holding its CellStats as they are (the schema-5
// E1 entry is kept under testdata/stale); at schema 5, when the
// topology and service key fields merged into Job.Key; at schema 4,
// when the service key gained the cell's core count, shared-LLC shape
// and quantum (multi-core serving) and cell results gained the cores
// metric; at schema 3, when the key preimage gained the job's
// service-sweep configuration and the resumable engines started
// recording request latencies; and at schema 2, when the preimage
// gained the job topology (many-core machines). Entries from prior
// schemas deliberately miss (see TestCacheSchemaBump and
// TestCacheSchema{2,3,4,5}EntriesMiss).
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/runner -run TestCacheCompat
const fixtureDir = "testdata/cachefixture"

func compatJob() expJob {
	run, _ := experiments.Lookup("E1")
	return expJob{ID: "E1", Mach: core.DefaultMachine(), Run: run}
}

// serveJob is a served cell as a job: its result is the cell's
// CellStats, stored as they are.
func serveJob() Job[service.CellStats] {
	cfg := service.DefaultConfig()
	cfg.Requests = 200
	cl := service.Cell{Policy: service.EventAware, Rate: 0.2}
	return Job[service.CellStats]{ID: cl.ResultID(), Mach: core.DefaultMachine(), Key: cfg,
		Run: func(m core.Machine) (service.CellStats, error) { return service.RunCell(m, cfg, cl) }}
}

// get is Cache.Get typed as the job's result.
func get[R any](c *Cache, j Job[R]) (R, bool) {
	v, ok := c.Get(j)
	res, _ := v.(R)
	return res, ok
}

func TestCacheCompatFixture(t *testing.T) {
	compatFixture(t, compatJob())
	compatFixture(t, serveJob())
}

// compatFixture requires the fixture to serve j a result equal to, and
// encoding exactly like, a fresh run of j (or, under UPDATE_GOLDEN,
// writes that run into the fixture).
func compatFixture[R any](t *testing.T, j Job[R]) {
	fresh, err := j.Run(j.Mach)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := c.Key(j)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := c.Put(j, fresh); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote fixture entry %s (%s)", key, j.ID)
		return
	}
	cached, ok := get(c, j)
	if !ok {
		t.Fatalf("%s: pre-change cache entry missed (key %s): schema or key shape drifted without a cacheSchema bump", j.ID, key)
	}
	wantJSON, err := json.Marshal(cached)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("freshly computed %s result differs from pre-change cached fixture:\n got: %s\nwant: %s",
			j.ID, gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Fatalf("%s: served result differs from a fresh run", j.ID)
	}
}

// TestCacheRoundTripWithObservabilityTable: results that carry the new
// "observability" table and obs.* metrics must round-trip through the
// cache byte-identically, while old-style results (no such table — the
// shape every pre-observability cache entry has) keep decoding under the
// same schema. Result's JSON shape did not change (the table list and
// metric map just gained entries), so cacheSchema stays at 1.
func TestCacheRoundTripWithObservabilityTable(t *testing.T) {
	var reg metrics.Registry
	reg.Exec.NoteEpisode(500, 360)
	reg.Exec.NoteEpisode(120, 360)
	reg.Mem.Accesses[mem.LevelL1] = 77
	snap := reg.Snapshot()

	with := &experiments.Result{ID: "obs-on", Metrics: map[string]float64{"cycles": 123}}
	with.Tables = append(with.Tables, snap.Table())
	snap.Metrics(with.Metrics)
	without := &experiments.Result{ID: "obs-off", Metrics: map[string]float64{"cycles": 123}}

	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*experiments.Result{with, without} {
		j := expJob{ID: res.ID, Mach: core.DefaultMachine()}
		if err := c.Put(j, res); err != nil {
			t.Fatal(err)
		}
		got, ok := get(c, j)
		if !ok {
			t.Fatalf("%s: cache miss after put", res.ID)
		}
		want, _ := json.Marshal(res)
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Fatalf("%s: cache round-trip changed the result:\n got: %s\nwant: %s", res.ID, have, want)
		}
		if got.String() != res.String() {
			t.Fatalf("%s: rendered tables differ after round-trip", res.ID)
		}
	}

	// The observability histogram rows survived: episode total equals the
	// two episodes recorded, visible in the decoded table text.
	got, _ := get(c, expJob{ID: "obs-on", Mach: core.DefaultMachine()})
	if !strings.Contains(got.String(), "episode_dur_total") {
		t.Errorf("decoded result lost observability rows:\n%s", got.String())
	}
	if got.Metrics["obs.exec.episodes"] != 2 {
		t.Errorf("obs.exec.episodes = %v, want 2", got.Metrics["obs.exec.episodes"])
	}
}

// TestCacheDamagedEntriesMiss damages a copy of each fixture entry (E1's
// and the served cell's) in the ways a shared cache directory gets
// damaged and holds each to the same contract: Get misses without
// panicking, nothing is served, and the next Put heals the slot. The
// entry carries no checksum, so a flip that turns one digit of a metric
// into another digit is out of reach; the two flips here are the
// detectable kinds (a number the entry is checked against, and a byte
// that stops being a digit).
func TestCacheDamagedEntriesMiss(t *testing.T) {
	// flip XORs mask into the byte after the first occurrence of marker.
	flip := func(t *testing.T, good []byte, marker string, mask byte) []byte {
		i := strings.Index(string(good), marker)
		if i < 0 {
			t.Fatalf("fixture has no %q", marker)
		}
		out := append([]byte(nil), good...)
		out[i+len(marker)] ^= mask
		return out
	}
	replace := func(t *testing.T, good []byte, old, new string) []byte {
		if !strings.Contains(string(good), old) {
			t.Fatalf("fixture has no %q", old)
		}
		return []byte(strings.Replace(string(good), old, new, 1))
	}
	schema := fmt.Sprintf(`"schema":%d`, cacheSchema)
	// Each case damages an entry's good bytes; id is its job's ID and
	// digit a marker that a metric's first digit follows.
	cases := []struct {
		name   string
		damage damage
	}{
		{"truncated", func(_ *testing.T, good []byte, _, _ string) []byte { return good[:len(good)/2] }},
		{"schema digit flipped", func(t *testing.T, good []byte, _, _ string) []byte {
			return flip(t, good, `"schema":`, 0x01)
		}},
		{"metric digit flipped to a non-digit", func(t *testing.T, good []byte, _, digit string) []byte {
			return flip(t, good, digit, 0x80)
		}},
		{"hollow result", func(_ *testing.T, _ []byte, id, _ string) []byte {
			return []byte(fmt.Sprintf(`{%s,"id":%q,"result":{}}`, schema, id))
		}},
		{"null result", func(_ *testing.T, _ []byte, id, _ string) []byte {
			return []byte(fmt.Sprintf(`{%s,"id":%q,"result":null}`, schema, id))
		}},
		{"foreign id", func(t *testing.T, good []byte, id, _ string) []byte {
			return replace(t, good, fmt.Sprintf(`"id":%q`, id), `"id":"E2"`)
		}},
		{"older schema", func(t *testing.T, good []byte, _, _ string) []byte {
			return replace(t, good, schema, fmt.Sprintf(`"schema":%d`, cacheSchema-1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damagedEntryMisses(t, compatJob(), `"coro_full_ns":`, tc.damage)
			damagedEntryMisses(t, serveJob(), `"P99":`, tc.damage)
		})
	}
}

// fixtureEntry returns j's cache key and the bytes of its fixture entry.
func fixtureEntry[R any](t *testing.T, j Job[R]) (string, []byte) {
	t.Helper()
	fix, err := OpenCache(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := fix.Key(j)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fix.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return key, data
}

// damage returns a damaged copy of an entry's good bytes.
type damage func(t *testing.T, good []byte, id, digit string) []byte

// damagedEntryMisses writes j's fixture entry, damaged, into a fresh
// cache; Get must miss it and count one miss, and Put must heal it.
func damagedEntryMisses[R any](t *testing.T, j Job[R], digit string, d damage) {
	t.Helper()
	key, good := fixtureEntry(t, j)
	v, ok := j.decode(good)
	if !ok {
		t.Fatalf("%s: fixture entry missed", j.ID)
	}
	want := v.(R)
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), d(t, good, j.ID, digit), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(j); ok || res != nil {
		t.Fatalf("%s: damaged entry served: %+v", j.ID, res)
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Fatalf("%s: hits/misses = %d/%d, want 0/1", j.ID, c.Hits(), c.Misses())
	}
	if err := c.Put(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := get(c, j)
	if !ok {
		t.Fatalf("%s: Put did not heal the damaged slot", j.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: healed entry differs from the fixture: %+v", j.ID, got)
	}
}
