package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
)

// cacheSchema versions the on-disk entry format. Bump it whenever the
// key preimage, a serialized result's shape or the simulator's
// observable behaviour changes, so stale entries miss instead of lying.
// Schema 2: the key preimage gained the job's machine topology
// (many-core runs). Schema 3: the preimage gained the job's
// service-sweep configuration and the resumable many-core engines
// started recording request latencies, so every pre-service entry
// deliberately misses. Schema 4: the service key gained the cell's core
// count, shared-LLC shape and quantum (multi-core serving), and cell
// results gained the cores metric. Schema 5: the topology and service
// fields merged into the job's one Key, and a serve cell keys on its
// normalized config narrowed to the cell. Schema 6: a serve cell's
// entry holds its CellStats as they are, not recoded as an experiment
// Result (experiment entries keep their bytes).
const cacheSchema = 6

// Cache is a content-addressed store of job results keyed by (schema,
// ID, machine, key). Entries are immutable JSON files named by the key
// hash, so concurrent readers and writers — including separate
// processes sharing a directory — never see partial state: writes go to
// a temp file and are renamed into place atomically.
type Cache struct {
	dir          string
	hits, misses atomic.Uint64
}

// OpenCache creates (if needed) and opens a cache directory; an empty
// dir selects the conventional location, $XDG_CACHE_HOME/softhide (via
// os.UserCacheDir).
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, fmt.Errorf("runner: no user cache dir: %w", err)
		}
		dir = filepath.Join(base, "softhide")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's directory.
func (c *Cache) Dir() string { return c.dir }

// Hits and Misses report lookup statistics since the cache was opened.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// cell is what the cache reads of a Job of any result type: its key
// preimage and the hit rule for its stored entry.
type cell interface {
	preimage() (id string, mach core.Machine, key any)
	decode(data []byte) (any, bool)
}

func (j Job[R]) preimage() (string, core.Machine, any) { return j.ID, j.Mach, j.Key }

// decode is the hit rule: a stored entry is served only if it decodes,
// with a non-null result of type R, into exactly the entry Put writes
// for this job — current schema, the job's ID, and bytes that re-encode
// unchanged. A hollow, truncated, foreign or differently shaped entry
// is a miss, never a zero value. The result decodes through a *R so
// that null stays distinguishable for every R.
func (j Job[R]) decode(data []byte) (any, bool) {
	var e entry[*R]
	if json.Unmarshal(data, &e) != nil || e.Schema != cacheSchema || e.ID != j.ID || e.Result == nil {
		return nil, false
	}
	back, err := json.Marshal(e)
	return *e.Result, err == nil && bytes.Equal(back, data)
}

// Key derives the content address of a job: a SHA-256 over the schema
// version, the ID, the complete machine description (which embeds the
// seed) and the job's Key. Two jobs share a key exactly when the
// simulator would be handed identical inputs.
func (c *Cache) Key(j cell) (string, error) {
	id, mach, key := j.preimage()
	payload, err := json.Marshal(struct {
		Schema int
		ID     string
		Mach   core.Machine
		Key    any `json:",omitempty"`
	}{cacheSchema, id, mach, key})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// entry is the on-disk representation: the key's preimage fields for
// debuggability plus the job's result.
type entry[R any] struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Result R      `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result of a Job[R], as an R, if its entry is
// present, readable and passes the hit rule. Anything else is a miss
// the next Put overwrites.
func (c *Cache) Get(j cell) (any, bool) {
	key, err := c.Key(j)
	var data []byte
	if err == nil {
		data, err = os.ReadFile(c.path(key))
	}
	if err == nil {
		if res, ok := j.decode(data); ok {
			c.hits.Add(1)
			return res, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores a job's result, of the job's result type, under its
// content address.
func (c *Cache) Put(j cell, res any) error {
	key, err := c.Key(j)
	if err != nil {
		return err
	}
	id, _, _ := j.preimage()
	data, err := json.Marshal(entry[any]{Schema: cacheSchema, ID: id, Result: res})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
