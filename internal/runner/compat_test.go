package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// fixtureDir holds a cache entry written at the current cacheSchema.
// Later changes that claim observational equivalence must keep serving
// this entry — and the served bytes must match what the current
// implementation computes. If the entry misses, the cache key (schema,
// ID, machine or topology shape) drifted; if the bytes differ, the
// simulator's observable behaviour changed and cacheSchema should have
// been bumped.
//
// History: the fixture was regenerated at schema 5, when the topology
// and service key fields merged into Job.Key (the schema-4 entry is kept
// under testdata/stale); at schema 4, when the service key gained the
// cell's core count, shared-LLC shape and quantum (multi-core serving)
// and cell results gained the cores metric; at schema 3, when the key
// preimage gained the job's service-sweep configuration and the
// resumable engines started recording request latencies; and at
// schema 2, when the preimage gained the job topology (many-core
// machines). Entries from prior schemas deliberately miss (see
// TestCacheSchemaBump and TestCacheSchema{2,3,4}EntriesMiss).
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/runner -run TestCacheCompat
const fixtureDir = "testdata/cachefixture"

func compatJob() Job {
	return Job{ID: "E1", Mach: core.DefaultMachine()}
}

func TestCacheCompatFixture(t *testing.T) {
	j := compatJob()
	run, err := experiments.Lookup(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := run(j.Mach)
	if err != nil {
		t.Fatal(err)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		c, err := OpenCache(fixtureDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(j, fresh); err != nil {
			t.Fatal(err)
		}
		key, _ := c.Key(j)
		t.Logf("wrote fixture entry %s", key)
		return
	}

	c, err := OpenCache(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := c.Get(j)
	if !ok {
		key, _ := c.Key(j)
		t.Fatalf("pre-change cache entry missed (key %s): schema or machine shape drifted without a cacheSchema bump", key)
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
	if fresh.String() != cached.String() {
		t.Fatalf("rendered table differs from pre-change cached fixture")
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
	reg.Mem.L1Hits = 77
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
		j := Job{ID: res.ID, Mach: core.DefaultMachine()}
		if err := c.Put(j, res); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(j)
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
	got, _ := c.Get(Job{ID: "obs-on", Mach: core.DefaultMachine()})
	if !strings.Contains(got.String(), "episode_dur_total") {
		t.Errorf("decoded result lost observability rows:\n%s", got.String())
	}
	if got.Metrics["obs.exec.episodes"] != 2 {
		t.Errorf("obs.exec.episodes = %v, want 2", got.Metrics["obs.exec.episodes"])
	}
}

// TestCacheDamagedEntriesMiss damages a copy of the fixture entry in
// the ways a shared cache directory gets damaged and holds each to the
// same contract: Get misses without panicking, nothing is served, and
// the next Put heals the slot. The entry carries no checksum, so a flip
// that turns one digit of a metric into another digit is out of reach;
// the two flips here are the detectable kinds (a number the entry is
// checked against, and a byte that stops being a digit).
func TestCacheDamagedEntriesMiss(t *testing.T) {
	j := compatJob()
	fix, err := OpenCache(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := fix.Get(j)
	if !ok {
		t.Fatal("fixture entry missed")
	}
	key, err := fix.Key(j)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(fix.path(key))
	if err != nil {
		t.Fatal(err)
	}
	// flip XORs mask into the byte after the first occurrence of marker.
	flip := func(marker string, mask byte) []byte {
		i := strings.Index(string(good), marker)
		if i < 0 {
			t.Fatalf("fixture has no %q", marker)
		}
		out := append([]byte(nil), good...)
		out[i+len(marker)] ^= mask
		return out
	}
	replace := func(old, new string) []byte {
		if !strings.Contains(string(good), old) {
			t.Fatalf("fixture has no %q", old)
		}
		return []byte(strings.Replace(string(good), old, new, 1))
	}
	schema := fmt.Sprintf(`"schema":%d`, cacheSchema)
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"schema digit flipped", flip(`"schema":`, 0x01)},
		{"metric digit flipped to a non-digit", flip(`"coro_full_ns":`, 0x80)},
		{"hollow result", []byte(fmt.Sprintf(`{%s,"id":%q,"result":{}}`, schema, j.ID))},
		{"foreign id", replace(`"id":"E1"`, `"id":"E2"`)},
		{"older schema", replace(schema, fmt.Sprintf(`"schema":%d`, cacheSchema-1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(key), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, ok := c.Get(j); ok || res != nil {
				t.Fatalf("damaged entry served: %+v", res)
			}
			if c.Hits() != 0 || c.Misses() != 1 {
				t.Fatalf("hits/misses = %d/%d, want 0/1", c.Hits(), c.Misses())
			}
			if err := c.Put(j, want); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Get(j)
			if !ok {
				t.Fatal("Put did not heal the damaged slot")
			}
			if got.String() != want.String() {
				t.Fatalf("healed entry differs from the fixture:\n%s", got.String())
			}
		})
	}
}
