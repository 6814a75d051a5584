package mem

import (
	"fmt"

	"repro/internal/metrics"
)

// Config sizes the cache hierarchy and fixes its latencies in cycles.
// Defaults model a contemporary server core at 3 GHz: L1 hits absorbable by
// the pipeline, L2/L3 in the paper's 10s-of-ns "out of hand" band, DRAM at
// 100 ns.
type Config struct {
	LineSize uint64

	L1Size uint64
	L1Ways int
	L2Size uint64
	L2Ways int
	L3Size uint64
	L3Ways int

	// Latencies are total load-to-use cycles when served from each level.
	LatL1   uint64
	LatL2   uint64
	LatL3   uint64
	LatDRAM uint64

	// WritebackPenalty is added to an access that evicts a dirty line
	// from L1 (the victim must be written back before the fill lands).
	WritebackPenalty uint64

	// MaxInflight caps outstanding prefetch-initiated fills (the MSHR
	// budget). Software and hardware prefetches beyond the cap are
	// dropped, bounding memory-level parallelism as real cores do.
	// Zero means unlimited.
	MaxInflight int

	// HWPrefetchDistance enables the hardware stream prefetcher: when an
	// access to line L follows a recent access to line L-1 (an ascending
	// stream), fills are started for the next HWPrefetchDistance lines.
	// Zero disables it. Sequential scans hit steady-state with no stalls,
	// as on real cores; pointer chases see no benefit — exactly the
	// asymmetry the paper's software mechanism targets.
	HWPrefetchDistance int
}

// DefaultConfig returns the reference machine used throughout the
// experiments (see DESIGN.md §1).
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		L1Size:   32 << 10,
		L1Ways:   8,
		L2Size:   256 << 10,
		L2Ways:   8,
		L3Size:   8 << 20,
		L3Ways:   16,
		LatL1:    4,
		LatL2:    14,
		LatL3:    50,
		LatDRAM:  300,

		WritebackPenalty:   12,
		MaxInflight:        64,
		HWPrefetchDistance: 4,
	}
}

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: line size %d must be a power of two", c.LineSize)
	}
	if c.L1Ways <= 0 || c.L2Ways <= 0 || c.L3Ways <= 0 {
		return fmt.Errorf("mem: cache ways must be positive")
	}
	for _, l := range [...]struct {
		name string
		size uint64
		ways int
	}{{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2Size, c.L2Ways}, {"L3", c.L3Size, c.L3Ways}} {
		if sets := setCount(l.size, c.LineSize, l.ways); sets&(sets-1) != 0 {
			return fmt.Errorf("mem: %s set count %d must be a power of two (size %d, line %d, ways %d)", l.name, sets, l.size, c.LineSize, l.ways)
		}
	}
	if !(c.LatL1 <= c.LatL2 && c.LatL2 <= c.LatL3 && c.LatL3 <= c.LatDRAM) {
		return fmt.Errorf("mem: latencies must be monotone across levels")
	}
	return nil
}

// Latency returns the configured total latency for a given serving level.
func (c Config) Latency(l Level) uint64 {
	switch l {
	case LevelL1:
		return c.LatL1
	case LevelL2:
		return c.LatL2
	case LevelL3:
		return c.LatL3
	default:
		return c.LatDRAM
	}
}

// Stats counts accesses by serving level plus prefetch activity.
type Stats struct {
	Accesses     [NumLevels]uint64 // loads+stores served per level
	Prefetches   uint64            // prefetch instructions that started a fill
	PrefetchHits uint64            // prefetches that found the line already cached
	HWPrefetches uint64            // fills started by the hardware stream prefetcher
	MSHRDrops    uint64            // prefetches dropped at the MaxInflight cap
	Writebacks   uint64            // dirty L1 victims written back
	// InflightFull counts residual-latency accesses whose fill had already
	// completed (the prefetch fully hid the miss).
	InflightFull uint64
	// MSHRPeak is the occupancy high-water mark of the fill table: the
	// most fills ever simultaneously outstanding. Against MaxInflight it
	// tells whether a workload actually saturates the MSHR budget.
	MSHRPeak uint64
}

// Total returns the total number of demand accesses.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Accesses {
		t += n
	}
	return t
}

// Hierarchy is the three-level cache model. All methods take the current
// global cycle `now`; callers must present non-decreasing timestamps.
type Hierarchy struct {
	cfg Config
	l1  *cache
	l2  *cache
	l3  *cache

	// lineShift is log2(LineSize); the demand path computes each line's
	// tag once and hands it to all three cache probes.
	lineShift uint
	// lat caches Config.Latency per level so the demand path indexes an
	// array instead of running the level switch.
	lat [NumLevels]uint64

	// fills is the flat MSHR file of outstanding fills (see fillTable).
	fills fillTable

	// recent holds the last few accessed line addresses for stream
	// detection (hardware prefetcher).
	recent    [8]uint64
	recentPos int

	// llc, when non-nil, replaces the private l3: L2 misses are served by
	// the shared banked LLC through this per-core view. Nil (the default)
	// keeps the original private three-level model bit-for-bit.
	llc *LLCView

	Stats Stats
}

// NewHierarchy builds a hierarchy from the configuration.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:   cfg,
		l1:    newCache(cfg.L1Size, cfg.LineSize, cfg.L1Ways),
		l2:    newCache(cfg.L2Size, cfg.LineSize, cfg.L2Ways),
		l3:    newCache(cfg.L3Size, cfg.LineSize, cfg.L3Ways),
		fills: newFillTable(cfg.MaxInflight),
	}
	h.lineShift = h.l1.lineBits
	for l := LevelL1; l < Level(NumLevels); l++ {
		h.lat[l] = cfg.Latency(l)
	}
	return h, nil
}

// MustNewHierarchy panics on configuration errors.
func MustNewHierarchy(cfg Config) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// AttachLLC replaces the private L3 with a per-core view of a shared
// banked LLC (see llc.go). Attach before the first access: the private
// l3 keeps whatever state it had and is never consulted again. Flush
// still clears only the private levels — the shared LLC belongs to the
// machine, not to any one core.
func (h *Hierarchy) AttachLLC(v *LLCView) { h.llc = v }

// LLC returns the attached shared-LLC view, or nil when the hierarchy
// runs its private three-level model.
func (h *Hierarchy) LLC() *LLCView { return h.llc }

func (h *Hierarchy) lineAddr(addr uint64) uint64 {
	return addr &^ (h.cfg.LineSize - 1)
}

// AccessResult describes one demand access.
type AccessResult struct {
	// Latency is the total cycles the access takes from issue to data.
	Latency uint64
	// Level is where the access was served from. LevelInflight means an
	// earlier prefetch was still (or had finished) bringing the line in.
	Level Level
	// MissedL2 reports whether the access missed both L1 and L2 — the
	// event class the paper's mechanism targets ("L2/L3 cache misses").
	MissedL2 bool
}

// Access performs a demand load of the line containing addr at cycle
// `now` and returns its latency and serving level. The line is installed
// in all levels afterwards.
//
//shsim:noalloc inline
func (h *Hierarchy) Access(addr, now uint64) AccessResult {
	return h.AccessW(addr, now, false)
}

// AccessW is Access with an explicit read/write flag: stores mark the L1
// line dirty (write-back, write-allocate), and a fill that evicts a dirty
// victim pays the write-back penalty.
//
//shsim:noalloc
func (h *Hierarchy) AccessW(addr, now uint64, write bool) AccessResult {
	ln := h.lineAddr(addr)
	h.streamDetect(ln, now)

	if len(h.fills.entries) > 0 {
		if i, ok := h.fills.search(ln); ok {
			f := h.fills.entries[i]
			h.fills.removeAt(i)
			wb := h.install(ln, write)
			res := AccessResult{Level: LevelInflight, MissedL2: f.level == LevelL3 || f.level == LevelDRAM}
			if f.completion <= now {
				// Fill already completed; the access behaves like an L1 hit.
				res.Latency = h.cfg.LatL1
				h.Stats.InflightFull++
			} else {
				res.Latency = f.completion - now
				if res.Latency < h.cfg.LatL1 {
					res.Latency = h.cfg.LatL1
				}
			}
			res.Latency += wb
			h.Stats.Accesses[LevelInflight]++
			return res
		}
	}

	// One fused probe per level: hit detection and install/LRU-refresh in
	// a single set walk (the old code walked each set twice, once to look
	// up and once to install).
	tag := (ln >> h.lineShift) + 1
	h1, dirty := h.l1.access(tag, write)
	h2, _ := h.l2.access(tag, false)
	if h.llc != nil {
		// Shared-LLC mode: L2 misses are served by the banked LLC view.
		// L1/L2 hits generate no LLC traffic; the miss is logged by
		// Demand and installed at the next quantum commit.
		var lvl Level
		var lat uint64
		switch {
		case h1:
			lvl, lat = LevelL1, h.lat[LevelL1]
		case h2:
			lvl, lat = LevelL2, h.lat[LevelL2]
		default:
			lvl, lat = h.llc.Demand(ln)
		}
		var wb uint64
		if dirty {
			h.Stats.Writebacks++
			wb = h.cfg.WritebackPenalty
		}
		h.Stats.Accesses[lvl]++
		return AccessResult{
			Latency:  lat + wb,
			Level:    lvl,
			MissedL2: lvl == LevelL3 || lvl == LevelDRAM,
		}
	}
	h3, _ := h.l3.access(tag, false)
	var lvl Level
	switch {
	case h1:
		lvl = LevelL1
	case h2:
		lvl = LevelL2
	case h3:
		lvl = LevelL3
	default:
		lvl = LevelDRAM
	}
	var wb uint64
	if dirty {
		h.Stats.Writebacks++
		wb = h.cfg.WritebackPenalty
	}
	h.Stats.Accesses[lvl]++
	return AccessResult{
		Latency:  h.lat[lvl] + wb,
		Level:    lvl,
		MissedL2: lvl == LevelL3 || lvl == LevelDRAM,
	}
}

// Prefetch starts an asynchronous fill of the line containing addr at cycle
// `now`. It returns the level the fill is served from and the completion
// cycle; if the line is already in L1 (or already being filled) it is a
// no-op.
func (h *Hierarchy) Prefetch(addr, now uint64) (Level, uint64) {
	ln := h.lineAddr(addr)
	if h.fills.has(ln) {
		h.Stats.PrefetchHits++
		return LevelInflight, now
	}
	if h.l1.contains(ln) {
		h.Stats.PrefetchHits++
		// Refresh LRU: a prefetch of a cached line is still a touch.
		h.l1.lookup(ln)
		return LevelL1, now
	}
	if h.cfg.MaxInflight > 0 && h.fills.len() >= h.cfg.MaxInflight {
		// MSHRs free at fill completion: reclaim finished entries before
		// concluding the budget is exhausted.
		h.reclaim(now)
	}
	if h.cfg.MaxInflight > 0 && h.fills.len() >= h.cfg.MaxInflight {
		// MSHRs genuinely exhausted: the prefetch is dropped, as on real
		// cores.
		h.Stats.MSHRDrops++
		return LevelDRAM, now
	}
	var lvl Level
	var completion uint64
	if h.llc != nil {
		if h.l2.contains(ln) {
			lvl, completion = LevelL2, now+h.cfg.Latency(LevelL2)
		} else {
			var lat uint64
			lvl, lat = h.llc.Demand(ln)
			completion = now + lat
		}
	} else {
		switch {
		case h.l2.contains(ln):
			lvl = LevelL2
		case h.l3.contains(ln):
			lvl = LevelL3
		default:
			lvl = LevelDRAM
		}
		completion = now + h.cfg.Latency(lvl)
	}
	h.fills.insert(ln, completion, lvl)
	if n := uint64(h.fills.len()); n > h.Stats.MSHRPeak {
		h.Stats.MSHRPeak = n
	}
	h.Stats.Prefetches++
	return lvl, completion
}

// reclaim installs completed fills into the caches and frees their MSHRs.
// Installs happen in ascending line order — install order decides
// evictions, so it must not depend on anything run-varying (this was the
// PR 1 nondeterminism fix, which sorted a scratch slice of due lines on
// every call). The fill table is sorted by line address, so a single
// in-place compaction walk installs in exactly that order for free.
func (h *Hierarchy) reclaim(now uint64) {
	w := 0
	for i := range h.fills.entries {
		e := h.fills.entries[i]
		if e.completion <= now {
			h.install(e.line, false)
			continue
		}
		h.fills.entries[w] = e
		w++
	}
	h.fills.entries = h.fills.entries[:w]
}

// streamDetect implements the hardware next-line prefetcher: if the line
// preceding ln was accessed recently, the access pattern looks like an
// ascending stream and the next HWPrefetchDistance lines are filled.
func (h *Hierarchy) streamDetect(ln, now uint64) {
	dist := h.cfg.HWPrefetchDistance
	if dist > 0 && ln >= h.cfg.LineSize {
		prev := ln - h.cfg.LineSize
		for _, r := range h.recent {
			if r == prev+1 { // stored with +1 so zero means empty
				for d := 1; d <= dist; d++ {
					h.hwPrefetch(ln+uint64(d)*h.cfg.LineSize, now)
				}
				break
			}
		}
	}
	h.recent[h.recentPos] = ln + 1
	h.recentPos = (h.recentPos + 1) & (len(h.recent) - 1)
}

// hwPrefetch starts a fill on behalf of the hardware prefetcher.
func (h *Hierarchy) hwPrefetch(ln, now uint64) {
	if h.fills.has(ln) {
		return
	}
	if h.l1.contains(ln) {
		return
	}
	if h.cfg.MaxInflight > 0 && h.fills.len() >= h.cfg.MaxInflight {
		h.reclaim(now)
		if h.fills.len() >= h.cfg.MaxInflight {
			h.Stats.MSHRDrops++
			return
		}
	}
	var lvl Level
	var completion uint64
	if h.llc != nil {
		if h.l2.contains(ln) {
			lvl, completion = LevelL2, now+h.cfg.Latency(LevelL2)
		} else {
			var lat uint64
			lvl, lat = h.llc.Demand(ln)
			completion = now + lat
		}
	} else {
		switch {
		case h.l2.contains(ln):
			lvl = LevelL2
		case h.l3.contains(ln):
			lvl = LevelL3
		default:
			lvl = LevelDRAM
		}
		completion = now + h.cfg.Latency(lvl)
	}
	h.fills.insert(ln, completion, lvl)
	if n := uint64(h.fills.len()); n > h.Stats.MSHRPeak {
		h.Stats.MSHRPeak = n
	}
	h.Stats.HWPrefetches++
}

// Residual returns the cycles remaining until the in-flight fill of the
// line containing addr completes, or 0 if there is no outstanding fill (or
// it already completed). The dual-mode executor uses it to size the hide
// window after a primary yield.
func (h *Hierarchy) Residual(addr, now uint64) uint64 {
	if f, ok := h.fills.get(h.lineAddr(addr)); ok && f.completion > now {
		return f.completion - now
	}
	return 0
}

// Contains reports whether the line containing addr is present at or above
// the given level, counting in-flight fills that have completed by `now`.
// This is the §4.1 hardware-assist probe; it does not perturb LRU state.
func (h *Hierarchy) Contains(addr, now uint64, level Level) bool {
	ln := h.lineAddr(addr)
	if f, ok := h.fills.get(ln); ok && f.completion <= now {
		return true
	}
	if h.l1.contains(ln) {
		return true
	}
	if level >= LevelL2 && h.l2.contains(ln) {
		return true
	}
	if level >= LevelL3 {
		if h.llc != nil {
			return h.llc.Contains(ln)
		}
		return h.l3.contains(ln)
	}
	return false
}

// Touch installs the line containing addr in every level without timing
// effects. Workload builders use it to pre-warm caches deterministically.
func (h *Hierarchy) Touch(addr uint64) {
	h.install(h.lineAddr(addr), false)
}

// Flush invalidates all cache levels and drops outstanding fills, e.g.
// between the profiling run and the measurement run. Storage (tag arrays,
// the MSHR file) is reset in place, never reallocated.
func (h *Hierarchy) Flush() {
	h.l1.flush()
	h.l2.flush()
	h.l3.flush()
	h.fills.reset()
	h.recent = [8]uint64{}
	h.recentPos = 0
}

// ResetStats zeroes the counters without touching cache state.
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

// FillMetrics harvests the hierarchy's always-on counters into an
// observability registry section. The demand path never counts twice:
// these are the same uint64 fields Stats has been bumping inline all
// along, copied out at snapshot time.
func (h *Hierarchy) FillMetrics(m *metrics.Mem) {
	m.L1Hits = h.Stats.Accesses[LevelL1]
	m.L2Hits = h.Stats.Accesses[LevelL2]
	m.L3Hits = h.Stats.Accesses[LevelL3]
	m.DRAMAccesses = h.Stats.Accesses[LevelDRAM]
	m.InflightHits = h.Stats.Accesses[LevelInflight]
	m.InflightFull = h.Stats.InflightFull
	m.L2Misses = h.Stats.Accesses[LevelL3] + h.Stats.Accesses[LevelDRAM]
	m.Prefetches = h.Stats.Prefetches
	m.PrefetchHits = h.Stats.PrefetchHits
	m.HWPrefetches = h.Stats.HWPrefetches
	m.MSHRDrops = h.Stats.MSHRDrops
	m.MSHRHighWater = h.Stats.MSHRPeak
	m.Writebacks = h.Stats.Writebacks
}

// install fills the line into every level (dirtying L1 when write is
// set) and returns the write-back penalty incurred if L1 had to evict a
// dirty victim.
func (h *Hierarchy) install(ln uint64, write bool) uint64 {
	tag := (ln >> h.lineShift) + 1
	_, dirty := h.l1.access(tag, write)
	h.l2.access(tag, false)
	if h.llc != nil {
		h.llc.Fill(ln)
	} else {
		h.l3.access(tag, false)
	}
	if dirty {
		h.Stats.Writebacks++
		return h.cfg.WritebackPenalty
	}
	return 0
}
