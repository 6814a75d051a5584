package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BinarySearch performs repeated lower-bound searches over a large sorted
// array — the other classic "killer nanoseconds" kernel [28]: every probe
// visits O(log n) cache lines scattered across the array.
type BinarySearch struct {
	// N is the array length (footprint N × 8 bytes).
	N int
	// Lookups is the number of searches per instance.
	Lookups int
	// Instances is the number of independent arrays/coroutines.
	Instances int
}

// Name implements Spec.
func (BinarySearch) Name() string { return "binsearch" }

// Register plan: r1=array base, r2=n, r3=lookup-key cursor, r4=remaining
// lookups, r5=accumulator (sum of lower-bound indices), r6=key, r7=lo,
// r8=hi, r9=mid, r10=addr, r11=A[mid].
const binSearchAsm = `
main:
    load r6, [r3]
    movi r7, 0
    mov  r8, r2
bs:
    cmp  r7, r8
    jge  bs_done
    add  r9, r7, r8
    shri r9, r9, 1
    shli r10, r9, 3
    add  r10, r10, r1
    load r11, [r10]          ; A[mid] (likely miss on a big array)
    cmp  r11, r6
    jge  keep_hi
    addi r7, r9, 1
    jmp  bs
keep_hi:
    mov  r8, r9
    jmp  bs
bs_done:
    add  r5, r5, r7
    addi r3, r3, 8
    addi r4, r4, -1
    cmpi r4, 0
    jgt  main
    mov  r1, r5
    halt
`

// Build implements Spec.
func (w BinarySearch) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.N < 1 || w.Lookups < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("binary search: need ≥1 elements, lookups and instances")
	}
	b := &Built{Prog: isa.MustAssemble(binSearchAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		arr := make([]uint64, w.N)
		var k uint64
		base := m.Alloc(uint64(w.N)*8, 64)
		for i := 0; i < w.N; i++ {
			k += uint64(1 + rng.Intn(9))
			arr[i] = k
			m.MustWrite64(base+uint64(i)*8, k)
		}
		keyBase := m.Alloc(uint64(w.Lookups)*8, 64)
		var expected uint64
		maxKey := arr[w.N-1]
		for i := 0; i < w.Lookups; i++ {
			key := uint64(rng.Int63n(int64(maxKey) + 2))
			m.MustWrite64(keyBase+uint64(i)*8, key)
			// Host lower bound, mirroring the assembly exactly.
			lo, hi := uint64(0), uint64(w.N)
			for lo < hi {
				mid := (lo + hi) >> 1
				if arr[mid] < key {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			expected += lo
		}
		var in Instance
		in.Regs[1] = base
		in.Regs[2] = uint64(w.N)
		in.Regs[3] = keyBase
		in.Regs[4] = uint64(w.Lookups)
		in.Expected = expected
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// sortedKeys draws n distinct keys from [1, 1<<30] and returns them in
// ascending order.
func sortedKeys(rng *rand.Rand, n int) []uint64 {
	set := map[uint64]bool{}
	for len(set) < n {
		set[uint64(1+rng.Intn(1<<30))] = true
	}
	keys := make([]uint64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// lookupKeys writes n lookup keys into a fresh array, each on a fair
// coin either one of keys or a random key with bit 30 set (so absent
// from keys drawn from [1, 1<<30], bar 1<<30 itself), and returns the
// array's base and the sum of the values find reports for the keys it
// finds.
func lookupKeys(m *mem.Memory, rng *rand.Rand, n int, keys []uint64, find func(uint64) (uint64, bool)) (base, expected uint64) {
	base = m.Alloc(uint64(n)*8, 64)
	for i := range n {
		var key uint64
		if rng.Intn(2) == 0 {
			key = keys[rng.Intn(len(keys))]
		} else {
			key = uint64(1+rng.Intn(1<<30)) | 1<<30
		}
		m.MustWrite64(base+uint64(i)*8, key)
		if v, ok := find(key); ok {
			expected += v
		}
	}
	return base, expected
}

// BST looks up keys in an unbalanced binary search tree built from random
// insertions: the pointer-chasing index structure from the paper's §2
// database motivation, with data-dependent branch structure.
type BST struct {
	// Keys is the number of tree nodes.
	Keys int
	// Lookups is the number of searches per instance.
	Lookups int
	// Instances is the number of independent trees/coroutines.
	Instances int
}

// Name implements Spec.
func (BST) Name() string { return "bst" }

// Node layout: [key, value, left, right], 32 bytes. Register plan:
// r1=root (then result), r3=lookup cursor, r4=remaining, r5=accumulator,
// r6=key, r7=cur, r8=node key, r9=value.
const bstAsm = `
main:
    mov  r12, r1             ; preserve root across the loop
lookup:
    load r6, [r3]
    mov  r7, r12
walk:
    cmpi r7, 0
    jeq  not_found
    load r8, [r7]            ; node key (likely miss)
    cmp  r8, r6
    jeq  found
    jlt  go_right
    load r7, [r7+16]         ; left child (likely miss)
    jmp  walk
go_right:
    load r7, [r7+24]         ; right child (likely miss)
    jmp  walk
found:
    load r9, [r7+8]
    add  r5, r5, r9
not_found:
    addi r3, r3, 8
    addi r4, r4, -1
    cmpi r4, 0
    jgt  lookup
    mov  r1, r5
    halt
`

// Build implements Spec.
func (w BST) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Keys < 1 || w.Lookups < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("bst: need ≥1 keys, lookups and instances")
	}
	b := &Built{Prog: isa.MustAssemble(bstAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		values := map[uint64]uint64{}
		var root uint64 // node address, 0 = empty
		var keys []uint64
		for len(values) < w.Keys {
			key := uint64(1 + rng.Intn(1<<30))
			if _, dup := values[key]; dup {
				continue
			}
			value := uint64(rng.Intn(1 << 20))
			values[key] = value
			keys = append(keys, key)
			node := m.Alloc(32, 64)
			m.MustWrite64(node, key)
			m.MustWrite64(node+8, value)
			m.MustWrite64(node+16, 0)
			m.MustWrite64(node+24, 0)
			if root == 0 {
				root = node
				continue
			}
			cur := root
			for {
				ck := m.MustRead64(cur)
				var slot uint64
				if key < ck {
					slot = cur + 16
				} else {
					slot = cur + 24
				}
				child := m.MustRead64(slot)
				if child == 0 {
					m.MustWrite64(slot, node)
					break
				}
				cur = child
			}
		}
		lkBase, expected := lookupKeys(m, rng, w.Lookups, keys, func(k uint64) (uint64, bool) {
			v, ok := values[k]
			return v, ok
		})
		var in Instance
		in.Regs[1] = root
		in.Regs[3] = lkBase
		in.Regs[4] = uint64(w.Lookups)
		in.Expected = expected
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}
