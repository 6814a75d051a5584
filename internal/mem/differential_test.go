package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file pins the flat-MSHR/packed-LRU hierarchy to the PR 1 reference
// implementation: a map-keyed MSHR file with a sorted reclaim scratch, and
// stamp-based LRU caches probed with a lookup walk followed by an install
// walk. The reference below is that implementation, kept verbatim modulo
// renames and without Touch/Flush. The differential test and
// FuzzHierarchyVsReference drive both models with identical operation
// streams and demand identical observable behavior: every AccessResult,
// every Prefetch/Residual/Contains return, and the final Stats.

type refInflight struct {
	completion uint64
	level      Level
}

type refCache struct {
	sets     uint64
	ways     int
	lineBits uint
	tags     []uint64
	lru      []uint64
	dirty    []bool
	stamp    uint64
}

func newRefCache(sizeBytes, lineSize uint64, ways int) *refCache {
	lines := sizeBytes / lineSize
	sets := lines / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	lb := uint(0)
	for s := lineSize; s > 1; s >>= 1 {
		lb++
	}
	return &refCache{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*uint64(ways)),
		lru:      make([]uint64, sets*uint64(ways)),
		dirty:    make([]bool, sets*uint64(ways)),
	}
}

func (c *refCache) line(addr uint64) uint64 { return addr >> c.lineBits }

func (c *refCache) lookup(addr uint64) bool {
	ln := c.line(addr) + 1
	base := ((ln - 1) % c.sets) * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == ln {
			c.stamp++
			c.lru[base+uint64(w)] = c.stamp
			return true
		}
	}
	return false
}

func (c *refCache) contains(addr uint64) bool {
	ln := c.line(addr) + 1
	base := ((ln - 1) % c.sets) * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == ln {
			return true
		}
	}
	return false
}

func (c *refCache) install(addr uint64) (evicted uint64, didEvict, wasDirty bool) {
	ln := c.line(addr) + 1
	base := ((ln - 1) % c.sets) * uint64(c.ways)
	victim := 0
	var victimStamp uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		t := c.tags[base+uint64(w)]
		if t == ln { // already present
			c.stamp++
			c.lru[base+uint64(w)] = c.stamp
			return 0, false, false
		}
		if t == 0 { // free way
			c.stamp++
			c.tags[base+uint64(w)] = ln
			c.lru[base+uint64(w)] = c.stamp
			c.dirty[base+uint64(w)] = false
			return 0, false, false
		}
		if c.lru[base+uint64(w)] < victimStamp {
			victimStamp = c.lru[base+uint64(w)]
			victim = w
		}
	}
	old := c.tags[base+uint64(victim)] - 1
	dirty := c.dirty[base+uint64(victim)]
	c.stamp++
	c.tags[base+uint64(victim)] = ln
	c.lru[base+uint64(victim)] = c.stamp
	c.dirty[base+uint64(victim)] = false
	return old << c.lineBits, true, dirty
}

func (c *refCache) markDirty(addr uint64) {
	ln := c.line(addr) + 1
	base := ((ln - 1) % c.sets) * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == ln {
			c.dirty[base+uint64(w)] = true
			return
		}
	}
}

type refHierarchy struct {
	cfg       Config
	l1        *refCache
	l2        *refCache
	l3        *refCache
	fills     map[uint64]refInflight
	due       []uint64
	recent    [8]uint64
	recentPos int
	Stats     Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{
		cfg:   cfg,
		l1:    newRefCache(cfg.L1Size, cfg.LineSize, cfg.L1Ways),
		l2:    newRefCache(cfg.L2Size, cfg.LineSize, cfg.L2Ways),
		l3:    newRefCache(cfg.L3Size, cfg.LineSize, cfg.L3Ways),
		fills: make(map[uint64]refInflight),
	}
}

func (h *refHierarchy) lineAddr(addr uint64) uint64 { return addr &^ (h.cfg.LineSize - 1) }

func (h *refHierarchy) AccessW(addr, now uint64, write bool) AccessResult {
	ln := h.lineAddr(addr)
	h.streamDetect(ln, now)

	if f, ok := h.fills[ln]; ok {
		delete(h.fills, ln)
		wb := h.installAll(ln)
		res := AccessResult{Level: LevelInflight, MissedL2: f.level == LevelL3 || f.level == LevelDRAM}
		if f.completion <= now {
			res.Latency = h.cfg.LatL1
			h.Stats.InflightFull++
		} else {
			res.Latency = f.completion - now
			if res.Latency < h.cfg.LatL1 {
				res.Latency = h.cfg.LatL1
			}
		}
		res.Latency += wb
		if write {
			h.l1.markDirty(ln)
		}
		h.Stats.Accesses[LevelInflight]++
		return res
	}

	var lvl Level
	switch {
	case h.l1.lookup(ln):
		lvl = LevelL1
	case h.l2.lookup(ln):
		lvl = LevelL2
	case h.l3.lookup(ln):
		lvl = LevelL3
	default:
		lvl = LevelDRAM
	}
	wb := h.installAll(ln)
	if write {
		h.l1.markDirty(ln)
	}
	h.Stats.Accesses[lvl]++
	return AccessResult{
		Latency:  h.cfg.Latency(lvl) + wb,
		Level:    lvl,
		MissedL2: lvl == LevelL3 || lvl == LevelDRAM,
	}
}

func (h *refHierarchy) Prefetch(addr, now uint64) (Level, uint64) {
	ln := h.lineAddr(addr)
	if _, ok := h.fills[ln]; ok {
		h.Stats.PrefetchHits++
		return LevelInflight, now
	}
	if h.l1.contains(ln) {
		h.Stats.PrefetchHits++
		h.l1.lookup(ln)
		return LevelL1, now
	}
	if h.cfg.MaxInflight > 0 && len(h.fills) >= h.cfg.MaxInflight {
		h.reclaim(now)
	}
	if h.cfg.MaxInflight > 0 && len(h.fills) >= h.cfg.MaxInflight {
		h.Stats.MSHRDrops++
		return LevelDRAM, now
	}
	var lvl Level
	switch {
	case h.l2.contains(ln):
		lvl = LevelL2
	case h.l3.contains(ln):
		lvl = LevelL3
	default:
		lvl = LevelDRAM
	}
	completion := now + h.cfg.Latency(lvl)
	h.fills[ln] = refInflight{completion: completion, level: lvl}
	if n := uint64(len(h.fills)); n > h.Stats.MSHRPeak {
		h.Stats.MSHRPeak = n
	}
	h.Stats.Prefetches++
	return lvl, completion
}

func (h *refHierarchy) reclaim(now uint64) {
	h.due = h.due[:0]
	for ln, f := range h.fills {
		if f.completion <= now {
			h.due = append(h.due, ln)
		}
	}
	slices.Sort(h.due)
	for _, ln := range h.due {
		h.installAll(ln)
		delete(h.fills, ln)
	}
}

func (h *refHierarchy) streamDetect(ln, now uint64) {
	dist := h.cfg.HWPrefetchDistance
	if dist > 0 && ln >= h.cfg.LineSize {
		prev := ln - h.cfg.LineSize
		for _, r := range h.recent {
			if r == prev+1 {
				for d := 1; d <= dist; d++ {
					h.hwPrefetch(ln+uint64(d)*h.cfg.LineSize, now)
				}
				break
			}
		}
	}
	h.recent[h.recentPos] = ln + 1
	h.recentPos = (h.recentPos + 1) % len(h.recent)
}

func (h *refHierarchy) hwPrefetch(ln, now uint64) {
	if _, ok := h.fills[ln]; ok {
		return
	}
	if h.l1.contains(ln) {
		return
	}
	if h.cfg.MaxInflight > 0 && len(h.fills) >= h.cfg.MaxInflight {
		h.reclaim(now)
		if len(h.fills) >= h.cfg.MaxInflight {
			h.Stats.MSHRDrops++
			return
		}
	}
	var lvl Level
	switch {
	case h.l2.contains(ln):
		lvl = LevelL2
	case h.l3.contains(ln):
		lvl = LevelL3
	default:
		lvl = LevelDRAM
	}
	h.fills[ln] = refInflight{completion: now + h.cfg.Latency(lvl), level: lvl}
	if n := uint64(len(h.fills)); n > h.Stats.MSHRPeak {
		h.Stats.MSHRPeak = n
	}
	h.Stats.HWPrefetches++
}

func (h *refHierarchy) Residual(addr, now uint64) uint64 {
	if f, ok := h.fills[h.lineAddr(addr)]; ok && f.completion > now {
		return f.completion - now
	}
	return 0
}

func (h *refHierarchy) Contains(addr, now uint64, level Level) bool {
	ln := h.lineAddr(addr)
	if f, ok := h.fills[ln]; ok && f.completion <= now {
		return true
	}
	if h.l1.contains(ln) {
		return true
	}
	if level >= LevelL2 && h.l2.contains(ln) {
		return true
	}
	if level >= LevelL3 && h.l3.contains(ln) {
		return true
	}
	return false
}

func (h *refHierarchy) installAll(ln uint64) uint64 {
	_, _, dirty := h.l1.install(ln)
	h.l2.install(ln)
	h.l3.install(ln)
	if dirty {
		h.Stats.Writebacks++
		return h.cfg.WritebackPenalty
	}
	return 0
}

// differentialConfigs are the machine shapes the random streams run
// against: conflict-heavy tiny caches, the reference-machine way mix, a
// tight MSHR budget, an unlimited one, and a disabled stream prefetcher.
func differentialConfigs() map[string]Config {
	tiny := Config{
		LineSize: 64,
		L1Size:   512, L1Ways: 2,
		L2Size: 2048, L2Ways: 4,
		L3Size: 8192, L3Ways: 4,
		LatL1: 4, LatL2: 14, LatL3: 50, LatDRAM: 300,
		WritebackPenalty:   12,
		MaxInflight:        8,
		HWPrefetchDistance: 4,
	}
	deflike := DefaultConfig()
	deflike.L1Size = 4 << 10
	deflike.L2Size = 32 << 10
	deflike.L3Size = 256 << 10

	tightMSHR := tiny
	tightMSHR.MaxInflight = 2

	unlimited := tiny
	unlimited.MaxInflight = 0

	noStream := tiny
	noStream.HWPrefetchDistance = 0

	return map[string]Config{
		"tiny":      tiny,
		"deflike":   deflike,
		"tightMSHR": tightMSHR,
		"unlimited": unlimited,
		"noStream":  noStream,
	}
}

// Differential stream operations.
const (
	opAccess   = iota // demand access, maybe a write
	opScan            // three ascending lines: stream-prefetcher food
	opPrefetch        // software prefetch
	opResidual        // residual probe
	opContains        // presence probe at a level
	numOps
)

// diffOp is one step of a differential stream.
type diffOp struct {
	kind  int
	addr  uint64
	write bool
	level Level
}

// stepBoth applies op at cycle now to the production hierarchy and the
// reference and reports the first return on which they differ.
func stepBoth(h *Hierarchy, ref *refHierarchy, op diffOp, now uint64) error {
	switch op.kind {
	case opAccess:
		if got, want := h.AccessW(op.addr, now, op.write), ref.AccessW(op.addr, now, op.write); got != want {
			return fmt.Errorf("AccessW(%#x, %d, %v) = %+v, ref %+v", op.addr, now, op.write, got, want)
		}
	case opScan:
		base := op.addr &^ (h.cfg.LineSize - 1)
		for j := uint64(0); j < 3; j++ {
			a := base + j*h.cfg.LineSize
			if got, want := h.AccessW(a, now, false), ref.AccessW(a, now, false); got != want {
				return fmt.Errorf("scan AccessW(%#x, %d) = %+v, ref %+v", a, now, got, want)
			}
		}
	case opPrefetch:
		gl, gc := h.Prefetch(op.addr, now)
		wl, wc := ref.Prefetch(op.addr, now)
		if gl != wl || gc != wc {
			return fmt.Errorf("Prefetch(%#x, %d) = (%v,%d), ref (%v,%d)", op.addr, now, gl, gc, wl, wc)
		}
	case opResidual:
		if got, want := h.Residual(op.addr, now), ref.Residual(op.addr, now); got != want {
			return fmt.Errorf("Residual(%#x, %d) = %d, ref %d", op.addr, now, got, want)
		}
	case opContains:
		if got, want := h.Contains(op.addr, now, op.level), ref.Contains(op.addr, now, op.level); got != want {
			return fmt.Errorf("Contains(%#x, %d, %v) = %v, ref %v", op.addr, now, op.level, got, want)
		}
	}
	return nil
}

// TestDifferentialAgainstMapModel drives the production hierarchy and the
// PR 1 reference through identical random operation streams and requires
// identical outputs at every step.
func TestDifferentialAgainstMapModel(t *testing.T) {
	for name, cfg := range differentialConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				h := MustNewHierarchy(cfg)
				ref := newRefHierarchy(cfg)
				rng := rand.New(rand.NewSource(seed))
				now := uint64(0)
				for i := 0; i < 20000; i++ {
					now += uint64(rng.Intn(40))
					// Address pool small enough to force conflicts and
					// evictions; scans trigger the stream prefetcher.
					op := diffOp{addr: uint64(rng.Intn(1 << 14))}
					switch k := rng.Intn(100); {
					case k < 45:
						op.kind, op.write = opAccess, rng.Intn(4) == 0
					case k < 60:
						op.kind = opScan
					case k < 75:
						op.kind = opPrefetch
					case k < 85:
						op.kind = opResidual
					default:
						op.kind, op.level = opContains, Level(rng.Intn(3))
					}
					if err := stepBoth(h, ref, op, now); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, i, err)
					}
				}
				if h.Stats != ref.Stats {
					t.Fatalf("seed %d: final stats diverged:\n got %+v\n ref %+v", seed, h.Stats, ref.Stats)
				}
			}
		})
	}
}

// FuzzHierarchyVsReference draws the machine shape as well as the
// stream: 1–16 ways and a power-of-two set count per level, an MSHR
// budget of 0 (unlimited) to 8, and a stream-prefetch distance of 0–4.
// Each 4-byte chunk of ops is one operation: kind, write flag and probe
// level from the first byte, a 14-bit address from the next two, and a
// 0–39 cycle advance from the last. Every return and the final Stats
// must match the reference.
func FuzzHierarchyVsReference(f *testing.F) {
	stream := func(seed int64, n int) []byte {
		b := make([]byte, 4*n)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	f.Add(uint8(1), uint8(3), uint8(3), uint8(1), uint8(2), uint8(3), uint8(8), uint8(4), stream(1, 1000))
	f.Add(uint8(7), uint8(7), uint8(15), uint8(3), uint8(4), uint8(4), uint8(2), uint8(4), stream(2, 1000))
	f.Add(uint8(15), uint8(15), uint8(15), uint8(0), uint8(1), uint8(2), uint8(0), uint8(1), stream(3, 1000))
	f.Add(uint8(0), uint8(1), uint8(2), uint8(2), uint8(3), uint8(5), uint8(1), uint8(0), stream(4, 1000))
	f.Fuzz(func(t *testing.T, w1, w2, w3, s1, s2, s3, inflight, dist uint8, ops []byte) {
		size := func(w, s uint8) (uint64, int) {
			ways := 1 + int(w%MaxWays)
			return (uint64(1) << (s % 6)) * uint64(ways) * 64, ways
		}
		cfg := Config{
			LineSize: 64,
			LatL1:    4, LatL2: 14, LatL3: 50, LatDRAM: 300,
			WritebackPenalty:   12,
			MaxInflight:        int(inflight % 9),
			HWPrefetchDistance: int(dist % 5),
		}
		cfg.L1Size, cfg.L1Ways = size(w1, s1)
		cfg.L2Size, cfg.L2Ways = size(w2, s2)
		cfg.L3Size, cfg.L3Ways = size(w3, s3)
		h := MustNewHierarchy(cfg)
		ref := newRefHierarchy(cfg)
		now := uint64(0)
		for i := 0; i+4 <= len(ops); i += 4 {
			b := ops[i : i+4]
			now += uint64(b[3] % 40)
			op := diffOp{
				kind:  int(b[0]&0xF) % numOps,
				write: b[0]&0x80 != 0,
				level: Level((b[0] >> 4 & 7) % 3),
				addr:  (uint64(b[1])<<8 | uint64(b[2])) & (1<<14 - 1),
			}
			if err := stepBoth(h, ref, op, now); err != nil {
				t.Fatalf("%+v op %d: %v", cfg, i/4, err)
			}
		}
		if h.Stats != ref.Stats {
			t.Fatalf("%+v: final stats diverged:\n got %+v\n ref %+v", cfg, h.Stats, ref.Stats)
		}
	})
}
