package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/experiments"
)

// cacheSchema versions the on-disk entry format. Bump it whenever the
// serialized Result shape or the simulator's observable behaviour
// changes, so stale entries miss instead of lying. Schema 2: the key
// preimage gained the job's machine topology (many-core runs). Schema
// 3: the preimage gained the job's service-sweep configuration and the
// resumable many-core engines started recording request latencies, so
// every pre-service entry deliberately misses. Schema 4: the service
// key gained the cell's core count, shared-LLC shape and quantum
// (multi-core serving), and cell results gained the cores metric.
const cacheSchema = 4

// Cache is a content-addressed store of experiment results keyed by
// (schema, experiment ID, machine). Entries are immutable JSON files
// named by the key hash, so concurrent readers and writers — including
// separate processes sharing a directory — never see partial state:
// writes go to a temp file and are renamed into place atomically.
type Cache struct {
	dir          string
	hits, misses atomic.Uint64
}

// DefaultDir returns the conventional cache location,
// $XDG_CACHE_HOME/softhide (via os.UserCacheDir).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("runner: no user cache dir: %w", err)
	}
	return filepath.Join(base, "softhide"), nil
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
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

// Key derives the content address of a job: a SHA-256 over the schema
// version, the experiment ID, the complete machine description (which
// embeds the seed), for many-core jobs the full topology, and for
// service-sweep jobs the full serve configuration. Two jobs share a key
// exactly when the simulator would be handed identical inputs.
func (c *Cache) Key(j Job) (string, error) {
	payload, err := json.Marshal(struct {
		Schema  int
		ID      string
		Mach    interface{}
		Topo    interface{} `json:",omitempty"`
		Service interface{} `json:",omitempty"`
	}{cacheSchema, j.ID, j.Mach, j.Topo, j.Service})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// entry is the on-disk representation: the key's preimage fields for
// debuggability plus the full result.
type entry struct {
	Schema int                 `json:"schema"`
	ID     string              `json:"id"`
	Result *experiments.Result `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result for a job, if present and readable. An
// entry is served only if it is what Put writes for this job: current
// schema, the job's ID, and a result that carries an ID of its own (so
// a hollow `"result":{}` is damage, not an empty table). Anything else
// — truncated, unparsable, foreign — is a miss the next Put overwrites.
func (c *Cache) Get(j Job) (*experiments.Result, bool) {
	key, err := c.Key(j)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != cacheSchema || e.ID != j.ID || e.Result == nil || e.Result.ID == "" {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.Result, true
}

// Put stores a job's result under its content address.
func (c *Cache) Put(j Job, res *experiments.Result) error {
	key, err := c.Key(j)
	if err != nil {
		return err
	}
	data, err := json.Marshal(entry{Schema: cacheSchema, ID: j.ID, Result: res})
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
