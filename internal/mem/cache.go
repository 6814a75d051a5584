package mem

import "fmt"

// Level identifies where an access was served from.
type Level uint8

// Hierarchy levels, ordered closest-first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelDRAM
	// LevelInflight marks an access that met an in-flight fill started by
	// an earlier prefetch; the access pays only the residual latency.
	LevelInflight
	numLevels
)

// NumLevels is the number of Level values (including LevelInflight).
const NumLevels = int(numLevels)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelDRAM:
		return "DRAM"
	case LevelInflight:
		return "inflight"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// MaxWays is the widest associativity any cache level admits: a set's
// whole recency order packs into one uint64 of 4-bit way indices.
const MaxWays = 16

// checkWays is the one associativity check every level shares
// (Config.Validate, LLCConfig.Validate, newCache).
func checkWays(level string, ways int) error {
	if ways < 1 || ways > MaxWays {
		return fmt.Errorf("mem: %s ways %d outside [1, %d]", level, ways, MaxWays)
	}
	return nil
}

// cache is one set-associative level with LRU replacement. Only tags are
// tracked; data lives in the flat Memory (the hierarchy models timing, not
// coherence).
//
// Replacement state is exact LRU. The full recency order of a set packs
// into one uint64 in `order` (up to sixteen 4-bit way indices,
// most-recent in the low nibble): victim selection reads one nibble and a
// touch is a few register shifts.
type cache struct {
	sets uint64
	// setMask is sets-1: the set count is a power of two, so indexing is a
	// mask rather than a modulo on the hot path.
	setMask  uint64
	ways     int
	lineBits uint
	// tags[set*ways+way] holds the line address (addr >> lineBits) + 1,
	// with 0 meaning invalid.
	tags []uint64
	// dirty[set*ways+way] marks lines with unwritten-back stores.
	dirty []bool
	// used[set] counts occupied ways. Installs never invalidate, so
	// occupied ways are always the prefix [0, used).
	used []int32
	// order[set] is the packed recency order: nibble 0 holds the
	// most-recently-used way index, nibble used-1 the LRU victim.
	// Nibbles at positions >= used are stale and never read.
	order []uint64
}

// setCount is the number of sets in a cache of sizeBytes with the given
// line size and associativity: at least one.
func setCount(sizeBytes, lineSize uint64, ways int) uint64 {
	return max(sizeBytes/lineSize/uint64(ways), 1)
}

func newCache(sizeBytes, lineSize uint64, ways int) *cache {
	if err := checkWays("cache", ways); err != nil {
		panic(err)
	}
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		panic("mem: line size must be a power of two")
	}
	sets := setCount(sizeBytes, lineSize, ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache set count %d must be a power of two (size %d, line %d, ways %d)", sets, sizeBytes, lineSize, ways))
	}
	lb := uint(0)
	for s := lineSize; s > 1; s >>= 1 {
		lb++
	}
	return &cache{
		sets:     sets,
		setMask:  sets - 1,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*uint64(ways)),
		dirty:    make([]bool, sets*uint64(ways)),
		used:     make([]int32, sets),
		order:    make([]uint64, sets),
	}
}

// promote moves the way at recency position p of the packed order word to
// the front (nibble 0), preserving everything else.
func promote(word uint64, p int, way uint64) uint64 {
	keep := word &^ ((uint64(1) << uint(4*(p+1))) - 1)
	moved := (word & ((uint64(1) << uint(4*p)) - 1)) << 4
	return keep | moved | way
}

// access is the fused lookup+install probe: one set walk that refreshes
// recency on a hit, or installs the line over a free or LRU way on a
// miss. It returns whether the probe hit and whether a dirty victim was
// evicted (the caller owes a write-back). When write is set the line's
// dirty bit is raised in place of a separate markDirty walk.
//
// The probe takes the line tag (line address >> lineBits, plus 1 so zero
// means invalid) rather than a byte address: every level shares the line
// size, so the hierarchy computes the tag once per access and probes all
// three levels with it.
//
// Equivalence with the old lookup-then-install pair: both make the
// accessed line the most recent in its set (the pair bumped its stamp
// twice per access, this probe once — relative recency order, the only
// thing victim selection reads, is identical), free ways are claimed
// first-ascending, and the victim is the unique least-recent way.
func (c *cache) access(tag uint64, write bool) (hit, wasDirty bool) {
	set := (tag - 1) & c.setMask
	base := set * uint64(c.ways)
	n := uint64(c.used[set])
	// MRU-way fast path: hit-dominated streams overwhelmingly re-touch
	// the most-recent line of a set, whose way index is nibble 0 of the
	// packed order word. One tag compare decides, and a front hit needs
	// neither the occupied-prefix scan nor a promotion (p == 0 is the
	// no-op case of the general walk below), so the common hit costs a
	// couple of loads instead of a scan.
	if n > 0 {
		if w := c.order[set] & 0xF; c.tags[base+w] == tag {
			if write {
				c.dirty[base+w] = true
			}
			return true, false
		}
	}
	occ := c.tags[base : base+n : base+n]
	// Hit scan covers only the occupied prefix; free ways cannot hit.
	for i, t := range occ {
		if t == tag { // hit: move to recency front
			word := c.order[set]
			wi := uint64(i)
			p := 0
			for (word>>uint(4*p))&0xF != wi {
				p++
			}
			if p != 0 {
				c.order[set] = promote(word, p, wi)
			}
			if write {
				c.dirty[base+uint64(i)] = true
			}
			return true, false
		}
	}
	// Miss with a free way: claim the first, which is the occupancy
	// count itself (free ways are claimed in ascending order).
	if int(n) < c.ways {
		c.used[set] = int32(n) + 1
		c.order[set] = c.order[set]<<4 | n
		c.tags[base+n] = tag
		c.dirty[base+n] = write
		return false, false
	}
	// Miss with the set full: evict the least-recent way — the victim
	// nibble — and move it to the front as the freshly installed line.
	word := c.order[set]
	p := c.ways - 1
	w := (word >> uint(4*p)) & 0xF
	c.order[set] = promote(word, p, w)
	wasDirty = c.dirty[base+w]
	c.tags[base+w] = tag
	c.dirty[base+w] = write
	return false, wasDirty
}

// containsTag reports whether the line with the given tag is resident.
// tag is a line index plus one, as stored in the tag array. Read-only:
// no recency update (the §4.1 cache-presence probe must not behave like
// a touch), safe for concurrent readers between commits.
func (c *cache) containsTag(tag uint64) bool {
	base := ((tag - 1) & c.setMask) * uint64(c.ways)
	tags := c.tags[base : base+uint64(c.ways)]
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}
