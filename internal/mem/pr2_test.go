package mem

import "testing"

// TestStreamPrefetchDistanceFills pins the stream prefetcher's fan-out:
// detecting an ascending stream at distance D must start exactly D fills,
// for the next D lines, all initially DRAM-latency deep.
func TestStreamPrefetchDistanceFills(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HWPrefetchDistance = 4
	h := MustNewHierarchy(cfg)

	h.Access(0*cfg.LineSize, 0) // no stream yet
	h.Access(1*cfg.LineSize, 0) // line 1 follows line 0: stream detected
	if got := h.Stats.HWPrefetches; got != 4 {
		t.Fatalf("stream detection started %d fills, want HWPrefetchDistance=4", got)
	}
	// The fills cover exactly lines 2..5 and are DRAM-deep.
	for line := uint64(2); line <= 5; line++ {
		if got := h.Residual(line*cfg.LineSize, 0); got != cfg.LatDRAM {
			t.Errorf("line %d residual = %d, want %d", line, got, cfg.LatDRAM)
		}
	}
	if got := h.Residual(6*cfg.LineSize, 0); got != 0 {
		t.Errorf("line 6 beyond the prefetch distance has residual %d, want 0", got)
	}
	// A demand access to a covered line is served from the in-flight fill.
	if r := h.Access(2*cfg.LineSize, 0); r.Level != LevelInflight {
		t.Errorf("covered line served from %v, want inflight", r.Level)
	}
}

// TestContainsDoesNotPerturbLRU checks that the §4.1 presence probe is
// side-effect free: probing a line must not refresh its recency, so a
// probed-but-not-accessed line is still the eviction victim.
func TestContainsDoesNotPerturbLRU(t *testing.T) {
	cfg := Config{
		LineSize: 64,
		L1Size:   256, L1Ways: 2, // 2 sets of 2 ways
		L2Size: 1024, L2Ways: 2,
		L3Size: 4096, L3Ways: 4,
		LatL1: 4, LatL2: 14, LatL3: 50, LatDRAM: 300,
		HWPrefetchDistance: 0,
	}
	h := MustNewHierarchy(cfg)

	// Lines 0, 2, 4 all map to L1 set 0 (2 sets): the set is full after A
	// and B, with A the LRU way.
	const a, b, c = 0 * 64, 2 * 64, 4 * 64
	h.Access(a, 0)
	h.Access(b, 10)

	// Probe A repeatedly. If Contains behaved like a touch, A would become
	// MRU and the next fill would evict B instead.
	for i := 0; i < 4; i++ {
		if !h.Contains(a, 20, LevelL1) {
			t.Fatal("resident line not found by Contains")
		}
	}

	h.Access(c, 30) // fills set 0: must evict A, the true LRU
	if r := h.Access(a, 40); r.Level != LevelL2 {
		t.Errorf("probed line served from %v, want L2 (evicted from L1 despite probes)", r.Level)
	}
}

// TestDirtyVictimTargetsLRUWay checks the write-back penalty is tied to
// the victim way specifically: evicting a clean LRU way costs nothing
// even while a dirty line sits in the same set.
func TestDirtyVictimTargetsLRUWay(t *testing.T) {
	cfg := Config{
		LineSize: 64,
		L1Size:   256, L1Ways: 2,
		L2Size: 1024, L2Ways: 2,
		L3Size: 4096, L3Ways: 4,
		LatL1: 4, LatL2: 14, LatL3: 50, LatDRAM: 300,
		WritebackPenalty:   12,
		HWPrefetchDistance: 0,
	}
	h := MustNewHierarchy(cfg)

	const a, b, c, d = 0 * 64, 2 * 64, 4 * 64, 6 * 64
	h.AccessW(a, 0, false) // clean
	h.AccessW(b, 10, true) // dirty
	h.AccessW(b, 20, true) // B is MRU and dirty; A is clean LRU

	// Fill C: evicts clean A, no penalty even though dirty B is resident.
	if r := h.AccessW(c, 30, false); r.Latency != cfg.LatDRAM {
		t.Errorf("clean-victim fill cost %d, want bare %d", r.Latency, cfg.LatDRAM)
	}
	if h.Stats.Writebacks != 0 {
		t.Fatalf("clean eviction recorded %d writebacks", h.Stats.Writebacks)
	}

	// Fill D: now the victim is dirty B and the fill pays the penalty.
	if r := h.AccessW(d, 40, false); r.Latency != cfg.LatDRAM+cfg.WritebackPenalty {
		t.Errorf("dirty-victim fill cost %d, want %d", r.Latency, cfg.LatDRAM+cfg.WritebackPenalty)
	}
	if h.Stats.Writebacks != 1 {
		t.Errorf("dirty eviction recorded %d writebacks, want 1", h.Stats.Writebacks)
	}
}

// TestHierarchySteadyStateAllocFree guards the tentpole property: with a
// bounded MSHR budget, the entire demand/prefetch/probe surface runs
// without allocating.
func TestHierarchySteadyStateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflight = 8
	h := MustNewHierarchy(cfg)

	// Warm up: populate caches and cycle the MSHR file through growth
	// and reclaim so every buffer is at steady-state size.
	now := uint64(0)
	for i := uint64(0); i < 512; i++ {
		h.AccessW(i*64, now, i%3 == 0)
		h.Prefetch((i+100)*64, now)
		now += 20
	}

	allocs := testing.AllocsPerRun(200, func() {
		h.AccessW(now%(1<<16), now, now%5 == 0)
		h.Prefetch((now+4096)%(1<<16), now)
		h.Residual(now%(1<<16), now)
		h.Contains(now%(1<<16), now, LevelL3)
		now += 37
	})
	if allocs != 0 {
		t.Errorf("steady-state hierarchy ops allocated %.1f times per run, want 0", allocs)
	}
}

// fillTable unit tests: ordering, membership, removal, storage reuse.

func TestFillTableSortedInsert(t *testing.T) {
	ft := newFillTable(8, 6)
	for _, ln := range []uint64{0x500, 0x100, 0x300, 0x200, 0x400} {
		ft.insert(ln, ln+1000, LevelDRAM)
	}
	if ft.len() != 5 {
		t.Fatalf("len = %d, want 5", ft.len())
	}
	for i := 1; i < ft.len(); i++ {
		if ft.entries[i-1].line >= ft.entries[i].line {
			t.Fatalf("entries out of order at %d: %#x >= %#x", i, ft.entries[i-1].line, ft.entries[i].line)
		}
	}
	if f, ok := ft.get(0x300); !ok || f.completion != 0x300+1000 || f.level != LevelDRAM {
		t.Errorf("get(0x300) = %+v, %v", f, ok)
	}
	if ft.search(0x250) >= 0 {
		t.Error("has reported an absent line")
	}
}

func TestFillTableRemove(t *testing.T) {
	ft := newFillTable(8, 6)
	for _, ln := range []uint64{0x100, 0x200, 0x300} {
		ft.insert(ln, 50, LevelL3)
	}
	i := ft.search(0x200)
	if i < 0 {
		t.Fatal("search missed an outstanding line")
	}
	ft.removeAt(i)
	if ft.search(0x200) >= 0 || ft.search(0x100) < 0 || ft.search(0x300) < 0 {
		t.Error("removeAt(0x200's index) disturbed the wrong entries")
	}
	if ft.len() != 2 {
		t.Errorf("len = %d after removal, want 2", ft.len())
	}
}

func TestFillTableDrainKeepsCapacity(t *testing.T) {
	ft := newFillTable(16, 6)
	before := &ft.entries[:1][0]
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 16; i++ {
			ft.insert(i*64, 10, LevelDRAM)
		}
		for ft.len() > 0 {
			ft.removeAt(ft.len() / 2)
		}
	}
	if cap(ft.entries) != 16 || &ft.entries[:1][0] != before {
		t.Error("filling and draining the table reallocated its storage; it must reuse it")
	}
}

func TestFillTableUnlimitedGrowth(t *testing.T) {
	ft := newFillTable(0, 6) // unlimited budget: table grows on demand
	for i := uint64(0); i < 200; i++ {
		ft.insert(i*64, 10, LevelDRAM)
	}
	if ft.len() != 200 {
		t.Fatalf("len = %d, want 200", ft.len())
	}
	for i := uint64(0); i < 200; i++ {
		if ft.search(i*64) < 0 {
			t.Fatalf("line %#x lost during growth", i*64)
		}
	}
}
