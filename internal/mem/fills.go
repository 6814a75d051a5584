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
// With MaxInflight > 0 the backing array is allocated once at its fixed
// capacity and never grows, so steady-state operation is
// allocation-free. MaxInflight == 0 (unlimited) falls back to amortized
// append growth.
type fillEntry struct {
	line       uint64 // line address (low lineBits clear)
	completion uint64 // cycle at which the line arrives
	level      Level  // level servicing the fill
}

type fillTable struct {
	entries []fillEntry // sorted by line
}

// newFillTable sizes the table for an MSHR budget; cap<=0 means unlimited
// and starts with a modest capacity that grows on demand.
func newFillTable(capacity int) fillTable {
	if capacity <= 0 {
		capacity = 64
	}
	return fillTable{entries: make([]fillEntry, 0, capacity)}
}

func (t *fillTable) len() int { return len(t.entries) }

// search returns the index of line in the table, or, when absent, the
// index at which it would be inserted, with found=false.
func (t *fillTable) search(line uint64) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].line < line {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].line == line
}

// get returns the entry for line, if outstanding.
func (t *fillTable) get(line uint64) (fillEntry, bool) {
	i, ok := t.search(line)
	if !ok {
		return fillEntry{}, false
	}
	return t.entries[i], true
}

// has reports whether a fill for line is outstanding.
func (t *fillTable) has(line uint64) bool {
	_, ok := t.search(line)
	return ok
}

// insert records a new outstanding fill. The caller has already checked
// the line is absent and the MSHR budget has room.
func (t *fillTable) insert(line, completion uint64, level Level) {
	i, _ := t.search(line)
	t.entries = append(t.entries, fillEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = fillEntry{line: line, completion: completion, level: level}
}

// removeAt frees the MSHR at index i.
func (t *fillTable) removeAt(i int) {
	copy(t.entries[i:], t.entries[i+1:])
	t.entries = t.entries[:len(t.entries)-1]
}
