package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// SkipList searches a four-level skip list — the ordered-index structure
// used by main-memory databases (e.g. MemSQL) and LSM memtables. Every
// level descent is a dependent pointer dereference over nodes scattered
// through memory, so a large list is miss-bound at every step: the
// paper's §2 database motivation with a more irregular access pattern
// than the BST.
type SkipList struct {
	// Keys is the number of list elements.
	Keys int
	// Lookups is the number of searches per instance.
	Lookups int
	// Instances is the number of independent lists/coroutines.
	Instances int
}

// Name implements Spec.
func (SkipList) Name() string { return "skiplist" }

// maxLevel is the fixed tower height: ~log2 of the largest supported list,
// so searches visit O(log n) nodes as in a production skip list.
const maxLevel = 13

// Node layout: [key, value, next0 .. next12], 120 bytes in a 128-byte
// slot. Register plan: r12=head, r3=lookup cursor, r4=remaining,
// r5=accumulator, r6=key, r7=cur, r8=level offset (16 + 8*level),
// r9=candidate, r10=candidate key, r11=scratch.
const skipListAsm = `
main:
    mov  r12, r1
kloop:
    load r6, [r3]
    mov  r7, r12
    movi r8, 112         ; next[maxLevel-1]
lvl:
    add  r11, r7, r8
    load r9, [r11]       ; cur.next[lvl] (likely miss)
    cmpi r9, 0
    jeq  descend
    load r10, [r9]       ; next key (likely miss)
    cmp  r10, r6
    jge  descend
    mov  r7, r9
    jmp  lvl
descend:
    addi r8, r8, -8
    cmpi r8, 15
    jgt  lvl
    load r9, [r7+16]     ; candidate = cur.next[0]
    cmpi r9, 0
    jeq  not_found
    load r10, [r9]
    cmp  r10, r6
    jne  not_found
    load r11, [r9+8]
    add  r5, r5, r11
not_found:
    addi r3, r3, 8
    addi r4, r4, -1
    cmpi r4, 0
    jgt  kloop
    mov  r1, r5
    halt
`

// Build implements Spec.
func (w SkipList) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Keys < 1 || w.Lookups < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("skip list: need ≥1 keys, lookups and instances")
	}
	b := &Built{Prog: isa.MustAssemble(skipListAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		// Keys are ≥ 1: 0 is the head sentinel.
		keys := sortedKeys(rng, w.Keys)

		// Geometric tower heights, and node slots allocated in shuffled
		// order so addresses are uncorrelated with key order (no stream
		// prefetching during descent).
		heights := make([]int, w.Keys)
		for i := range heights {
			h := 1
			for h < maxLevel && rng.Intn(2) == 0 {
				h++
			}
			heights[i] = h
		}
		addrs := make([]uint64, w.Keys)
		for _, i := range rng.Perm(w.Keys) {
			addrs[i] = m.Alloc(128, 64)
		}
		head := m.Alloc(128, 64)
		values := make(map[uint64]uint64, w.Keys)
		for i, k := range keys {
			v := uint64(rng.Intn(1 << 20))
			values[k] = v
			m.MustWrite64(addrs[i], k)
			m.MustWrite64(addrs[i]+8, v)
			for l := 0; l < maxLevel; l++ {
				m.MustWrite64(addrs[i]+16+uint64(l)*8, 0)
			}
		}
		m.MustWrite64(head, 0)
		m.MustWrite64(head+8, 0)
		for l := 0; l < maxLevel; l++ {
			m.MustWrite64(head+16+uint64(l)*8, 0)
			prev := head
			for i := range keys {
				if heights[i] > l {
					m.MustWrite64(prev+16+uint64(l)*8, addrs[i])
					prev = addrs[i]
				}
			}
		}

		lkBase, expected := lookupKeys(m, rng, w.Lookups, keys, func(k uint64) (uint64, bool) {
			v, ok := values[k]
			return v, ok
		})
		var in Instance
		in.Regs[1] = head
		in.Regs[3] = lkBase
		in.Regs[4] = uint64(w.Lookups)
		in.Expected = expected
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}
