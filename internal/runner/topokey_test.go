package runner

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// staleEntryMisses writes data at the current key's path of an E1 job
// and requires Get to miss: an entry from an older schema must never be
// served, even when a file with the current key's name exists on disk.
func staleEntryMisses(t *testing.T, data []byte) {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := expJob{ID: "E1", Mach: core.DefaultMachine()}
	key, err := c.Key(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatalf("stale entry served under schema %d", cacheSchema)
	}
}

// staleEntry is the fixture's E1 entry stamped with an older schema, so
// the stamp is all that stands between it and a hit.
func staleEntry(t *testing.T, schema int) []byte {
	_, data := fixtureEntry(t, compatJob())
	return bytes.Replace(data, []byte(fmt.Sprintf(`"schema":%d`, cacheSchema)), []byte(fmt.Sprintf(`"schema":%d`, schema)), 1)
}

// A schema-1 entry (pre-topology key preimage) must miss.
func TestCacheSchemaBump(t *testing.T) { staleEntryMisses(t, staleEntry(t, 1)) }

// A schema-2 entry (pre-service key preimage) must miss.
func TestCacheSchema2EntriesMiss(t *testing.T) { staleEntryMisses(t, staleEntry(t, 2)) }

// A schema-3 entry (pre-multi-core-serving key preimage) must miss.
func TestCacheSchema3EntriesMiss(t *testing.T) { staleEntryMisses(t, staleEntry(t, 3)) }

// The schema-4 compatibility fixture (the last entry written before
// the topology and service key fields merged into Job.Key) must miss.
func TestCacheSchema4EntriesMiss(t *testing.T) {
	data, err := os.ReadFile("testdata/stale/schema4-E1.json")
	if err != nil {
		t.Fatal(err)
	}
	staleEntryMisses(t, data)
}

// The schema-5 compatibility fixture (the last entry written before a
// served cell's entry held its CellStats as they are) must miss.
func TestCacheSchema5EntriesMiss(t *testing.T) {
	data, err := os.ReadFile("testdata/stale/schema5-E1.json")
	if err != nil {
		t.Fatal(err)
	}
	staleEntryMisses(t, data)
}

// Topology participates in the key: a job without a Key, a 1-core
// topology job and an 8-core topology job are three distinct cells.
func TestCacheKeyIncludesTopology(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := expJob{ID: "E1", Mach: core.DefaultMachine()}

	keys := map[string]string{}
	for name, j := range map[string]expJob{
		"classic": base,
		"cores1":  {ID: base.ID, Mach: base.Mach, Key: machine.DefaultTopology(1)},
		"cores8":  {ID: base.ID, Mach: base.Mach, Key: machine.DefaultTopology(8)},
	} {
		k, err := c.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("jobs %q and %q share cache key %s", name, prev, k)
			}
		}
		keys[name] = k
	}

	// Same topology value → same key (pointer identity must not leak in).
	topo8, topo8b := machine.DefaultTopology(8), machine.DefaultTopology(8)
	ka, _ := c.Key(expJob{ID: base.ID, Mach: base.Mach, Key: &topo8})
	kb, _ := c.Key(expJob{ID: base.ID, Mach: base.Mach, Key: &topo8b})
	if ka != kb || ka != keys["cores8"] {
		t.Error("identical topologies hash to different keys")
	}
}

// A serve configuration participates in the key: two jobs that differ
// only in it are distinct cells, identical configurations collide, and
// a nil Key marshals away (omitempty) so jobs without one keep their
// schema-stable keys.
func TestCacheKeyIncludesService(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type svc struct {
		Policy string
		Rate   float64
	}
	base := expJob{ID: "serve/agnostic/rate=0.2", Mach: core.DefaultMachine()}
	withA := base
	withA.Key = svc{Policy: "agnostic", Rate: 0.2}
	withB := base
	withB.Key = svc{Policy: "agnostic", Rate: 0.4}
	withA2 := base
	withA2.Key = svc{Policy: "agnostic", Rate: 0.2}

	kNil, err := c.Key(base)
	if err != nil {
		t.Fatal(err)
	}
	kA, err := c.Key(withA)
	if err != nil {
		t.Fatal(err)
	}
	kB, err := c.Key(withB)
	if err != nil {
		t.Fatal(err)
	}
	kA2, err := c.Key(withA2)
	if err != nil {
		t.Fatal(err)
	}
	if kA == kNil || kB == kNil {
		t.Error("service configuration did not change the cache key")
	}
	if kA == kB {
		t.Error("distinct service configurations share a cache key")
	}
	if kA != kA2 {
		t.Error("identical service configurations hash to different keys")
	}
}
