package mem

// fillTable is the MSHR file: the set of outstanding fills, kept as a
// flat array sorted by line address. It replaces the map the hierarchy
// used through PR 1. The table is small — bounded by Config.MaxInflight
// (64 on the reference machine) — so open-addressed probing or hashing
// buys nothing: a binary search touches one or two cache lines, inserts
// and deletes are short memmoves, and the sorted order makes reclaim's
// ascending-line-address install order (the determinism contract from
// the PR 1 nondeterminism fix) fall out of a plain array walk instead of
// a per-call sort.
//
// Most lookups are for lines that have no fill: completed fills are
// reclaimed only under MSHR pressure, so they linger, and nearly every
// demand access, prefetch and probe asks about a line that is not among
// them. A counting presence filter answers those without the search:
// present counts the entries per bucket of line index, so an empty
// bucket proves the line absent, and only a non-empty one pays the
// binary search. The filter is host-side bookkeeping only; what the
// table holds and the order it installs in do not depend on it.
//
// With MaxInflight > 0 the backing array is allocated once at its fixed
// capacity and never grows, so steady-state operation is
// allocation-free. MaxInflight == 0 (unlimited) falls back to amortized
// append growth.
type fillEntry struct {
	line       uint64 // line address (low lineBits clear)
	completion uint64 // cycle at which the line arrives
	level      Level  // level servicing the fill
}

// filterBuckets is the presence filter's size, a power of two. Against
// the 64-entry reference budget it keeps a lookup's chance of a wasted
// search near a fifth at worst, and near an eighth at the few dozen
// entries a chase leaves behind.
const filterBuckets = 256

type fillTable struct {
	entries []fillEntry // sorted by line
	// lineShift is log2 of the line size: line>>lineShift is the index
	// the filter buckets on.
	lineShift uint
	// present[b] counts the entries whose line index is b modulo
	// filterBuckets. A count never exceeds len(entries), and 2^32
	// entries would be a 96 GiB table, so a uint32 cannot wrap even
	// without an MSHR budget. Narrow counts keep the filter at 1 KiB:
	// it rides in every Hierarchy, and short runs build many.
	present [filterBuckets]uint32
}

// newFillTable sizes the table for an MSHR budget and a line size of
// 1<<lineShift bytes; cap<=0 means unlimited and starts with a modest
// capacity that grows on demand.
func newFillTable(capacity int, lineShift uint) fillTable {
	if capacity <= 0 {
		capacity = 64
	}
	return fillTable{entries: make([]fillEntry, 0, capacity), lineShift: lineShift}
}

func (t *fillTable) len() int { return len(t.entries) }

// bucket is line's presence-filter slot.
//
//shsim:noalloc inline
func (t *fillTable) bucket(line uint64) uint64 {
	return (line >> t.lineShift) % filterBuckets
}

// search returns the index of line in the table, or -1 when no fill for
// line is outstanding. An empty filter bucket answers "absent" inline,
// without touching the entries.
//
//shsim:noalloc inline
func (t *fillTable) search(line uint64) int {
	if t.present[t.bucket(line)] == 0 {
		return -1
	}
	return t.find(line)
}

// find is search's binary search, outlined so the filter test inlines.
//
//go:noinline
//shsim:noalloc
func (t *fillTable) find(line uint64) int {
	if i := t.lowerBound(line); i < len(t.entries) && t.entries[i].line == line {
		return i
	}
	return -1
}

// lowerBound returns the index of the first entry whose line is not
// below line: where line is, or where it would be inserted.
func (t *fillTable) lowerBound(line uint64) int {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].line < line {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get returns the entry for line, if outstanding.
func (t *fillTable) get(line uint64) (fillEntry, bool) {
	i := t.search(line)
	if i < 0 {
		return fillEntry{}, false
	}
	return t.entries[i], true
}

// insert records a new outstanding fill. The caller has already checked
// the line is absent and the MSHR budget has room.
func (t *fillTable) insert(line, completion uint64, level Level) {
	i := t.lowerBound(line)
	t.entries = append(t.entries, fillEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = fillEntry{line: line, completion: completion, level: level}
	t.present[t.bucket(line)]++
}

// removeAt frees the MSHR at index i.
func (t *fillTable) removeAt(i int) {
	t.present[t.bucket(t.entries[i].line)]--
	copy(t.entries[i:], t.entries[i+1:])
	t.entries = t.entries[:len(t.entries)-1]
}
