package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMemoryAllocAndAccess(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc(64, 8)
	b := m.Alloc(64, 64)
	if a < 64 {
		t.Errorf("first allocation %#x overlaps reserved page", a)
	}
	if b%64 != 0 {
		t.Errorf("aligned allocation %#x not 64-byte aligned", b)
	}
	if b < a+64 {
		t.Errorf("allocations overlap: a=%#x b=%#x", a, b)
	}
	m.MustWrite64(a, 0xdeadbeef)
	if got := m.MustRead64(a); got != 0xdeadbeef {
		t.Errorf("read back %#x", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := NewMemory(1 << 12)
	if _, err := m.Read64(0); err == nil {
		t.Error("null load should fault")
	}
	if _, err := m.Read64(m.Size() - 4); err == nil {
		t.Error("partially out-of-range load should fault")
	}
	if err := m.Write64(0, 1); err == nil {
		t.Error("null store should fault")
	}
	if err := m.Write64(m.Size(), 1); err == nil {
		t.Error("out-of-range store should fault")
	}
}

func TestMemoryAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	m := NewMemory(1 << 10)
	m.Alloc(1<<20, 8)
}

// TestHostPrefetchIsOnlyAHint prefetches at the edges of the backing,
// the pages, the image and the address space: nothing panics, faults or
// changes.
func TestHostPrefetchIsOnlyAHint(t *testing.T) {
	m := NewMemory(1 << 20)
	a := m.Alloc(256, 8)
	m.MustWrite64(a, 42)
	m.MustWrite64(1<<18, 7)
	brk, size, backing, snap := m.Brk(), m.Size(), backedBytes(m), snapshot(m)
	end := uint64(len(m.pages[0]))
	for _, addr := range []uint64{0, 7, 8, end - 1, end, pageSize - 8, pageSize - 1, pageSize, 1 << 18, size, 1 << 63, ^uint64(0)} {
		m.HostPrefetch(addr)
	}
	if m.Brk() != brk || m.Size() != size || backedBytes(m) != backing {
		t.Errorf("brk/size/backing moved: %d/%d/%d, want %d/%d/%d", m.Brk(), m.Size(), backedBytes(m), brk, size, backing)
	}
	if !bytes.Equal(snapshot(m), snap) {
		t.Error("HostPrefetch changed the image")
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way, 2 sets, 64B lines => 256 bytes.
	c := newCache(256, 64, 2)
	if c.sets != 2 {
		t.Fatalf("sets = %d, want 2", c.sets)
	}
	// Three tags mapping to the same set (set = (tag-1) & 1).
	a, b, d := uint64(1), uint64(3), uint64(5)
	c.access(a, false)
	c.access(b, false)
	if !c.containsTag(a) || !c.containsTag(b) {
		t.Fatal("both lines should be resident")
	}
	// Touch a so b becomes LRU, then install d: b must be evicted.
	if hit, _ := c.access(a, false); !hit {
		t.Fatal("re-access of a missed")
	}
	if hit, _ := c.access(d, false); hit {
		t.Fatal("d hit before it was installed")
	}
	if c.containsTag(b) {
		t.Error("b should be gone")
	}
	if !c.containsTag(a) || !c.containsTag(d) {
		t.Error("a and d should be resident")
	}
}

func TestCacheInstallIdempotent(t *testing.T) {
	c := newCache(256, 64, 2)
	c.access(1, false)
	if hit, wasDirty := c.access(1, false); !hit || wasDirty {
		t.Errorf("re-accessing a resident line = (hit %v, dirty victim %v), want (true, false)", hit, wasDirty)
	}
	if c.used[0] != 1 {
		t.Errorf("set 0 holds %d ways after two accesses of one line, want 1", c.used[0])
	}
}

func TestHierarchyLevels(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	// Cold access: DRAM.
	r := h.Access(0x1000, 0)
	if r.Level != LevelDRAM || r.Latency != cfg.LatDRAM || !r.MissedL2 {
		t.Fatalf("cold access: %+v", r)
	}
	// Now hot in L1.
	r = h.Access(0x1000, 100)
	if r.Level != LevelL1 || r.Latency != cfg.LatL1 || r.MissedL2 {
		t.Fatalf("hot access: %+v", r)
	}
	// Same line, different word.
	r = h.Access(0x1008, 200)
	if r.Level != LevelL1 {
		t.Fatalf("same-line access should hit L1: %+v", r)
	}
}

func TestHierarchyEvictionCascade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Size = 128 // 2 lines
	cfg.L1Ways = 1
	cfg.L2Size = 256 // 4 lines
	cfg.L2Ways = 1
	cfg.L3Size = 1 << 12
	cfg.L3Ways = 1
	h := MustNewHierarchy(cfg)
	h.Access(0, 0)
	// Evict from direct-mapped L1 set 0 (stride = 2 lines * 64B = 128).
	h.Access(128, 10)
	r := h.Access(0, 20)
	if r.Level != LevelL2 {
		t.Fatalf("expected L2 hit after L1 eviction, got %v", r.Level)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)

	// Fully hidden: prefetch at t=0, access after the DRAM latency.
	lvl, done := h.Prefetch(0x4000, 0)
	if lvl != LevelDRAM || done != cfg.LatDRAM {
		t.Fatalf("prefetch: lvl=%v done=%d", lvl, done)
	}
	r := h.Access(0x4000, cfg.LatDRAM+10)
	if r.Level != LevelInflight || r.Latency != cfg.LatL1 {
		t.Fatalf("fully hidden access: %+v", r)
	}
	if h.Stats.InflightFull != 1 {
		t.Errorf("InflightFull = %d", h.Stats.InflightFull)
	}

	// Partially hidden: access 100 cycles after prefetch.
	h2 := MustNewHierarchy(cfg)
	h2.Prefetch(0x8000, 0)
	r = h2.Access(0x8000, 100)
	want := cfg.LatDRAM - 100
	if r.Level != LevelInflight || r.Latency != want {
		t.Fatalf("partially hidden access: got %+v, want latency %d", r, want)
	}
	if !r.MissedL2 {
		t.Error("DRAM-sourced inflight access should report MissedL2")
	}
}

func TestPrefetchOfCachedLineIsNoop(t *testing.T) {
	h := MustNewHierarchy(DefaultConfig())
	h.Access(0x100, 0)
	lvl, done := h.Prefetch(0x100, 10)
	if lvl != LevelL1 || done != 10 {
		t.Errorf("prefetch of resident line: lvl=%v done=%d", lvl, done)
	}
	if h.Stats.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", h.Stats.PrefetchHits)
	}
	// Duplicate prefetch of an in-flight line is also a no-op.
	h.Prefetch(0x9000, 20)
	if lvl, _ := h.Prefetch(0x9000, 25); lvl != LevelInflight {
		t.Errorf("duplicate prefetch level = %v", lvl)
	}
}

func TestPrefetchFromL2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Size = 128
	cfg.L1Ways = 1
	h := MustNewHierarchy(cfg)
	h.Access(0, 0)
	h.Access(128, 10) // evicts line 0 from tiny L1; still in L2
	lvl, done := h.Prefetch(0, 20)
	if lvl != LevelL2 || done != 20+cfg.LatL2 {
		t.Errorf("prefetch from L2: lvl=%v done=%d", lvl, done)
	}
}

func TestContainsProbe(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	if h.Contains(0x2000, 0, LevelL2) {
		t.Error("cold line should not be present")
	}
	h.Access(0x2000, 0)
	if !h.Contains(0x2000, 10, LevelL1) {
		t.Error("hot line should be present in L1")
	}
	// In-flight fill counts only once complete.
	h.Prefetch(0x7000, 100)
	if h.Contains(0x7000, 150, LevelL2) {
		t.Error("incomplete fill should not count as present")
	}
	if !h.Contains(0x7000, 100+cfg.LatDRAM, LevelL2) {
		t.Error("completed fill should count as present")
	}
}

func TestStats(t *testing.T) {
	h := MustNewHierarchy(DefaultConfig())
	h.Access(0, 0)
	h.Access(0, 1)
	h.Access(64, 2)
	s := h.Stats
	if s.Accesses[LevelDRAM] != 2 || s.Accesses[LevelL1] != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.Total() != 3 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.LineSize = 48
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	bad = DefaultConfig()
	bad.LatL3 = bad.LatDRAM + 1
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("non-monotone latencies accepted")
	}
	bad = DefaultConfig()
	bad.L2Ways = 0
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("zero ways accepted")
	}
	// Latencies past MaxCycles would let the clock wrap: three DRAM loads
	// at LatDRAM = 2^63 used to leave the core's clock at 2^63+13.
	for _, f := range []struct {
		name string
		set  func(*Config, uint64)
	}{
		{"LatL1", func(c *Config, v uint64) { c.LatL1, c.LatL2, c.LatL3, c.LatDRAM = v, v, v, v }},
		{"LatL2", func(c *Config, v uint64) { c.LatL2, c.LatL3, c.LatDRAM = v, v, v }},
		{"LatL3", func(c *Config, v uint64) { c.LatL3, c.LatDRAM = v, v }},
		{"LatDRAM", func(c *Config, v uint64) { c.LatDRAM = v }},
		{"WritebackPenalty", func(c *Config, v uint64) { c.WritebackPenalty = v }},
	} {
		ok := DefaultConfig()
		f.set(&ok, MaxCycles)
		if _, err := NewHierarchy(ok); err != nil {
			t.Errorf("%s at MaxCycles rejected: %v", f.name, err)
		}
		for _, v := range []uint64{MaxCycles + 1, 1 << 63} {
			bad = DefaultConfig()
			f.set(&bad, v)
			if _, err := NewHierarchy(bad); err == nil || !strings.Contains(err.Error(), f.name+" ") {
				t.Errorf("%s = %d: got %v, want the bound error naming it", f.name, v, err)
			}
		}
	}
}

// TestWaysOutsideRangeRejected holds every level — L1, L2, L3 and the
// shared LLC — to associativity in [1, MaxWays], with one error text.
func TestWaysOutsideRangeRejected(t *testing.T) {
	hier := func(set func(*Config, int)) func(int) error {
		return func(ways int) error {
			cfg := DefaultConfig()
			set(&cfg, ways)
			_, err := NewHierarchy(cfg)
			return err
		}
	}
	build := map[string]func(int) error{
		"L1": hier(func(c *Config, w int) { c.L1Ways = w }),
		"L2": hier(func(c *Config, w int) { c.L2Ways = w }),
		"L3": hier(func(c *Config, w int) { c.L3Ways = w }),
		"LLC": func(ways int) error {
			cfg := DefaultLLCConfig(4)
			cfg.Ways = ways
			_, err := NewSharedLLC(cfg)
			return err
		},
	}
	for level, build := range build {
		for _, ways := range []int{0, 17, 32} {
			want := fmt.Sprintf("mem: %s ways %d outside [1, 16]", level, ways)
			if err := build(ways); err == nil || err.Error() != want {
				t.Errorf("%s ways %d: got %v, want %q", level, ways, err, want)
			}
		}
		if err := build(MaxWays); err != nil {
			t.Errorf("%s ways %d rejected: %v", level, MaxWays, err)
		}
	}
}

// Property: after any access the line is L1-resident, and a repeated access
// at the same cycle is always an L1 hit.
func TestAccessIdempotencyQuick(t *testing.T) {
	h := MustNewHierarchy(DefaultConfig())
	var now uint64
	f := func(addr uint32) bool {
		now += 7
		h.Access(uint64(addr), now)
		r := h.Access(uint64(addr), now)
		return r.Level == LevelL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: latencies are always bounded by [LatL1, LatDRAM].
func TestLatencyBoundsQuick(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	rng := rand.New(rand.NewSource(7))
	var now uint64
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 24))
		now += uint64(rng.Intn(50))
		if rng.Intn(4) == 0 {
			h.Prefetch(addr, now)
			continue
		}
		r := h.Access(addr, now)
		if r.Latency < cfg.LatL1 || r.Latency > cfg.LatDRAM {
			t.Fatalf("access %d: latency %d out of bounds (%+v)", i, r.Latency, r)
		}
	}
}

// Property: the LRU working set is fully resident — accessing W distinct
// lines that fit in one level keeps them all at that level or better.
func TestWorkingSetResidency(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	lines := int(cfg.L1Size / cfg.LineSize / 2) // half of L1
	var now uint64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			addr := uint64(i) * cfg.LineSize
			r := h.Access(addr, now)
			now += r.Latency
			if pass > 0 && r.Level != LevelL1 {
				t.Fatalf("pass %d line %d: level %v, want L1", pass, i, r.Level)
			}
		}
	}
}

func TestHardwareStreamPrefetcher(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	// Sequential line-by-line scan: after the stream is detected, accesses
	// are served by in-flight (or completed) hardware prefetches.
	now := uint64(0)
	var dramAfterWarmup uint64
	for i := 0; i < 64; i++ {
		r := h.Access(uint64(i)*cfg.LineSize, now)
		now += r.Latency + 76 // ~80 cycles of compute per line, like a scan
		if i >= 8 && r.Level == LevelDRAM {
			dramAfterWarmup++
		}
	}
	if h.Stats.HWPrefetches == 0 {
		t.Fatal("stream prefetcher never fired")
	}
	if dramAfterWarmup > 0 {
		t.Errorf("%d demand DRAM accesses after warmup; stream should be covered", dramAfterWarmup)
	}
	// Random pattern: the prefetcher must stay quiet.
	h2 := MustNewHierarchy(cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		h2.Access(uint64(rng.Intn(1<<20))&^63*7, uint64(i*10))
	}
	if h2.Stats.HWPrefetches > 20 {
		t.Errorf("prefetcher fired %d times on a random pattern", h2.Stats.HWPrefetches)
	}
	// Disabled by config.
	cfg.HWPrefetchDistance = 0
	h3 := MustNewHierarchy(cfg)
	for i := 0; i < 16; i++ {
		h3.Access(uint64(i)*cfg.LineSize, uint64(i*400))
	}
	if h3.Stats.HWPrefetches != 0 {
		t.Error("disabled prefetcher fired")
	}
}

func TestMSHRCapDropsPrefetches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflight = 2
	cfg.HWPrefetchDistance = 0
	h := MustNewHierarchy(cfg)
	h.Prefetch(0x10000, 0)
	h.Prefetch(0x20000, 0)
	// Third prefetch exceeds the MSHR budget and is dropped.
	h.Prefetch(0x30000, 0)
	if h.Stats.MSHRDrops != 1 {
		t.Fatalf("MSHRDrops = %d, want 1", h.Stats.MSHRDrops)
	}
	// The dropped line pays the full miss on access.
	if r := h.Access(0x30000, 10); r.Level != LevelDRAM {
		t.Errorf("dropped prefetch should leave a full miss, got %v", r.Level)
	}
	// Draining a fill frees an MSHR.
	h.Access(0x10000, 500)
	h.Prefetch(0x40000, 500)
	if h.Stats.MSHRDrops != 1 {
		t.Errorf("freed MSHR should accept a new fill (drops=%d)", h.Stats.MSHRDrops)
	}
	// Unlimited when zero.
	cfg.MaxInflight = 0
	h2 := MustNewHierarchy(cfg)
	for i := 0; i < 100; i++ {
		h2.Prefetch(uint64(0x1000+i*64), 0)
	}
	if h2.Stats.MSHRDrops != 0 {
		t.Error("unlimited config dropped prefetches")
	}
}

func TestWritebackPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Size = 128 // 2 lines, direct-mapped sets of 1
	cfg.L1Ways = 1
	cfg.HWPrefetchDistance = 0
	h := MustNewHierarchy(cfg)
	// Dirty line 0, then force its eviction (same set: stride 128).
	h.AccessW(0, 0, true)
	r := h.Access(128, 100)
	if r.Latency != cfg.LatDRAM+cfg.WritebackPenalty {
		t.Errorf("evicting a dirty victim: latency %d, want %d",
			r.Latency, cfg.LatDRAM+cfg.WritebackPenalty)
	}
	if h.Stats.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", h.Stats.Writebacks)
	}
	// Clean eviction pays no penalty.
	h2 := MustNewHierarchy(cfg)
	h2.Access(0, 0)
	r = h2.Access(128, 100)
	if r.Latency != cfg.LatDRAM {
		t.Errorf("clean eviction: latency %d, want %d", r.Latency, cfg.LatDRAM)
	}
	if h2.Stats.Writebacks != 0 {
		t.Error("clean eviction recorded a writeback")
	}
	// Re-dirtying an inflight-filled line works too.
	h3 := MustNewHierarchy(cfg)
	h3.Prefetch(0, 0)
	h3.AccessW(0, 400, true) // completes the fill and dirties it
	r = h3.Access(128, 500)
	if r.Latency != cfg.LatDRAM+cfg.WritebackPenalty {
		t.Errorf("dirty-after-inflight eviction: latency %d", r.Latency)
	}
}

func TestResidualAndConfigAccessors(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNewHierarchy(cfg)
	if h.Config().LatDRAM != cfg.LatDRAM {
		t.Error("Config accessor wrong")
	}
	if h.Residual(0x5000, 0) != 0 {
		t.Error("no fill should have zero residual")
	}
	h.Prefetch(0x5000, 100)
	if got := h.Residual(0x5000, 150); got != cfg.LatDRAM-50 {
		t.Errorf("residual = %d, want %d", got, cfg.LatDRAM-50)
	}
	if h.Residual(0x5000, 100+cfg.LatDRAM+1) != 0 {
		t.Error("completed fill should have zero residual")
	}
}

func TestMustNewHierarchyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	bad := DefaultConfig()
	bad.LineSize = 3
	MustNewHierarchy(bad)
}

func TestMustAccessorsPanic(t *testing.T) {
	m := NewMemory(1 << 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRead64(0) should panic")
			}
		}()
		m.MustRead64(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustWrite64(0) should panic")
			}
		}()
		m.MustWrite64(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Alloc with bad alignment should panic")
			}
		}()
		m.Alloc(8, 3)
	}()
	// Tiny memories are rounded up to a usable floor.
	if NewMemory(1).Size() < 128 {
		t.Error("minimum size not enforced")
	}
	// Zero alignment defaults to 8.
	if a := m.Alloc(8, 0); a%8 != 0 {
		t.Error("default alignment wrong")
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{LevelL1, LevelL2, LevelL3, LevelDRAM, LevelInflight, Level(99)} {
		if l.String() == "" {
			t.Errorf("level %d renders empty", l)
		}
	}
}

func TestNewCachePanics(t *testing.T) {
	for _, f := range []func(){
		func() { newCache(256, 64, 0) },    // no ways
		func() { newCache(64*17, 64, 17) }, // too many ways
		func() { newCache(256, 48, 2) },    // bad line size
		func() { newCache(64*3*2, 64, 2) }, // 3 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestMSHRPeakAndStatsAdd pins the occupancy high-water mark and how
// Stats.Add folds it: the higher peak wins.
func TestMSHRPeakAndStatsAdd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HWPrefetchDistance = 0 // only software prefetches occupy MSHRs
	cfg.MaxInflight = 8
	h := MustNewHierarchy(cfg)

	// Start 5 fills at distinct lines, all outstanding at cycle 0.
	for i := 0; i < 5; i++ {
		h.Prefetch(uint64(i)*cfg.LineSize, 0)
	}
	if h.Stats.MSHRPeak != 5 {
		t.Fatalf("MSHRPeak = %d after 5 concurrent fills, want 5", h.Stats.MSHRPeak)
	}
	// Drain them via demand accesses; the peak must not move.
	for i := 0; i < 5; i++ {
		h.Access(uint64(i)*cfg.LineSize, 1000)
	}
	if h.Stats.MSHRPeak != 5 {
		t.Fatalf("MSHRPeak moved on drain: %d", h.Stats.MSHRPeak)
	}
	// Three more simultaneous fills peak at 3, below the high water.
	for i := 10; i < 13; i++ {
		h.Prefetch(uint64(i)*cfg.LineSize, 2000)
	}
	if h.Stats.MSHRPeak != 5 {
		t.Fatalf("MSHRPeak regressed: %d", h.Stats.MSHRPeak)
	}

	// Stats.Add sums the counters but keeps the higher peak.
	sum := h.Stats
	sum.Add(Stats{Accesses: [NumLevels]uint64{LevelDRAM: 2}, Prefetches: 1, MSHRPeak: 3})
	if sum.MSHRPeak != 5 || sum.Prefetches != h.Stats.Prefetches+1 ||
		sum.Accesses[LevelDRAM] != h.Stats.Accesses[LevelDRAM]+2 {
		t.Errorf("Add(%+v) = %+v", h.Stats, sum)
	}
	sum.Add(Stats{MSHRPeak: 9})
	if sum.MSHRPeak != 9 {
		t.Errorf("Add kept peak %d, want the higher 9", sum.MSHRPeak)
	}
}
