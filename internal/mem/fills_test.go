package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// checkFilter requires every presence bucket to count exactly the
// entries that fall in it (an over-count only costs a search, but an
// under-count could let an empty bucket hide a live fill) and search to
// find every live fill.
func checkFilter(t *testing.T, ft *fillTable) {
	t.Helper()
	var want [filterBuckets]uint32
	for i, e := range ft.entries {
		want[ft.bucket(e.line)]++
		if got := ft.search(e.line); got != i {
			t.Fatalf("live fill %#x at index %d: search = %d", e.line, i, got)
		}
	}
	for b := range want {
		if ft.present[b] != want[b] {
			t.Fatalf("bucket %d counts %d entries, the table holds %d", b, ft.present[b], want[b])
		}
	}
}

// TestFillFilterSharedBucket: two lines a filter-size apart share a
// bucket. Removing or reclaiming one leaves the other found, and every
// live fill is found through its bucket after each step.
func TestFillFilterSharedBucket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HWPrefetchDistance = 0
	const a, b = 5 << 6, (5 + filterBuckets) << 6 // one bucket, two lines
	for _, tc := range []struct {
		name string
		drop func(h *Hierarchy) // frees a's MSHR, leaving b's
	}{
		{"removeAt", func(h *Hierarchy) { h.fills.removeAt(h.fills.search(a)) }},
		{"demand access", func(h *Hierarchy) { h.AccessW(a, 100, false) }},
		{"reclaim", func(h *Hierarchy) { h.reclaim(10 + cfg.LatDRAM) }},
	} {
		h := MustNewHierarchy(cfg)
		if h.fills.bucket(a) != h.fills.bucket(b) {
			t.Fatal("the two lines do not share a bucket")
		}
		h.Prefetch(a, 10)
		h.Prefetch(b, 20) // completes after a: reclaim at a's completion keeps it
		checkFilter(t, &h.fills)
		tc.drop(h)
		checkFilter(t, &h.fills)
		if h.fills.search(a) >= 0 {
			t.Errorf("%s: line a still outstanding", tc.name)
		}
		if i := h.fills.search(b); i < 0 || h.fills.entries[i].line != b {
			t.Errorf("%s: the bucket's other line was lost (search = %d)", tc.name, i)
		}
		if got := h.Residual(b, 20); got != cfg.LatDRAM {
			t.Errorf("%s: residual of b = %d, want %d", tc.name, got, cfg.LatDRAM)
		}
	}
}

// FuzzFillTable runs random insert, removeAt, reclaim and search
// sequences against a plain sorted slice. Each 3-byte chunk of ops is one
// operation: kind from the first byte, and an 11-bit line index (eight
// lines per filter bucket) or an index or cycle from the other two. The
// table must hold exactly the reference's entries, search must agree
// with a scan of them, and every bucket must count its entries.
func FuzzFillTable(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 3*400)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := MustNewHierarchy(DefaultConfig())
		var ref []fillEntry
		find := func(line uint64) int {
			for i, e := range ref {
				if e.line == line {
					return i
				}
			}
			return -1
		}
		for k := 0; k+3 <= len(ops); k += 3 {
			arg := uint64(ops[k+1])<<8 | uint64(ops[k+2])
			line := (arg % 2048) << 6
			switch ops[k] % 4 {
			case 0: // insert: the caller guarantees the line is absent
				if find(line) < 0 {
					h.fills.insert(line, arg%512, LevelDRAM)
					i, _ := slices.BinarySearchFunc(ref, line, func(e fillEntry, l uint64) int {
						switch {
						case e.line < l:
							return -1
						case e.line > l:
							return 1
						}
						return 0
					})
					ref = slices.Insert(ref, i, fillEntry{line: line, completion: arg % 512, level: LevelDRAM})
				}
			case 1:
				if len(ref) > 0 {
					i := int(arg) % len(ref)
					h.fills.removeAt(i)
					ref = slices.Delete(ref, i, i+1)
				}
			case 2:
				now := arg % 512
				h.reclaim(now)
				ref = slices.DeleteFunc(ref, func(e fillEntry) bool { return e.completion <= now })
			case 3:
				if got, want := h.fills.search(line), find(line); got != want {
					t.Fatalf("op %d: search(%#x) = %d, want %d", k/3, line, got, want)
				}
			}
			if !slices.Equal(h.fills.entries, ref) {
				t.Fatalf("op %d: table %v, want %v", k/3, h.fills.entries, ref)
			}
			checkFilter(t, &h.fills)
		}
	})
}
