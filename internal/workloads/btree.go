package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BTree searches a bulk-loaded B+-tree — the index structure main-memory
// databases actually use (and the subject of the paper's CoroBase [23]
// and index-join [53] citations). Each probe descends a handful of
// 128-byte nodes: a short chain of dependent cache misses with a linear
// key scan inside each node.
type BTree struct {
	// Keys is the number of indexed entries.
	Keys int
	// Lookups is the number of searches per instance.
	Lookups int
	// Instances is the number of independent trees/coroutines.
	Instances int
}

// Name implements Spec.
func (BTree) Name() string { return "btree" }

// btreeFanout is the number of keys per node. Node layout (128 bytes):
//
//	word 0      : count (number of keys)
//	word 1      : leaf flag (1 = leaf)
//	words 2..8  : keys[0..6]
//	words 9..15 : children[0..6] (inner) or values[0..6] (leaf)
//
// Inner-node semantics: descend into children[i] for the first i with
// key < keys[i]... specifically children[i] covers keys < keys[i]; the
// last child covers the remainder. For simplicity keys[i] is the
// *smallest* key of children[i+1]'s subtree and children has count+1
// entries... we instead use the common "route to first key > probe"
// formulation below, mirrored exactly by the host builder.
const btreeFanout = 7

// Register plan: r12=root, r3=lookup cursor, r4=remaining lookups,
// r5=accumulator, r6=probe key, r7=cur node, r8=index, r9=count,
// r10=key/value scratch, r11=address scratch, r13=leaf flag.
const btreeAsm = `
main:
    mov  r12, r1
lookup:
    load r6, [r3]
    mov  r7, r12
descend:
    load r9, [r7]        ; count (likely miss: first touch of the node)
    load r13, [r7+8]     ; leaf flag (same line: hit)
    movi r8, 0
scan:
    cmp  r8, r9
    jge  scan_done
    shli r11, r8, 3
    add  r11, r11, r7
    load r10, [r11+16]   ; keys[i]
    cmp  r10, r6
    jgt  scan_done       ; first key greater than probe
    jeq  exact
    addi r8, r8, 1
    jmp  scan
exact:
    addi r8, r8, 1       ; position after the matching key
scan_done:
    cmpi r13, 1
    jeq  at_leaf
    ; inner: child index = r8
    shli r11, r8, 3
    add  r11, r11, r7
    load r7, [r11+72]    ; children[i] (likely miss after descent)
    jmp  descend
at_leaf:
    ; r8 is the position after the probe key if present; check r8-1.
    cmpi r8, 0
    jeq  not_found
    addi r8, r8, -1
    shli r11, r8, 3
    add  r11, r11, r7
    load r10, [r11+16]   ; keys[r8]
    cmp  r10, r6
    jne  not_found
    load r10, [r11+72]   ; values[r8]
    add  r5, r5, r10
not_found:
    addi r3, r3, 8
    addi r4, r4, -1
    cmpi r4, 0
    jgt  lookup
    mov  r1, r5
    halt
`

// btreeNode is the host-side mirror used during construction and search.
type btreeNode struct {
	addr     uint64
	leaf     bool
	keys     []uint64
	children []*btreeNode // inner
	values   []uint64     // leaf
}

// Build implements Spec.
func (w BTree) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Keys < 1 || w.Lookups < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("btree: need ≥1 keys, lookups and instances")
	}
	b := &Built{Prog: isa.MustAssemble(btreeAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		keys := sortedKeys(rng, w.Keys)
		values := make(map[uint64]uint64, w.Keys)

		// Bulk-load leaves.
		var level []*btreeNode
		for i := 0; i < len(keys); i += btreeFanout {
			end := i + btreeFanout
			if end > len(keys) {
				end = len(keys)
			}
			n := &btreeNode{leaf: true}
			for _, k := range keys[i:end] {
				v := uint64(rng.Intn(1 << 20))
				values[k] = v
				n.keys = append(n.keys, k)
				n.values = append(n.values, v)
			}
			level = append(level, n)
		}
		// Build inner levels: an inner node holds up to btreeFanout-1
		// separator keys (the smallest key of each child after the first)
		// and up to btreeFanout children.
		for len(level) > 1 {
			var up []*btreeNode
			for i := 0; i < len(level); i += btreeFanout {
				end := i + btreeFanout
				if end > len(level) {
					end = len(level)
				}
				n := &btreeNode{}
				n.children = append(n.children, level[i:end]...)
				for _, c := range level[i+1 : end] {
					n.keys = append(n.keys, smallestKey(c))
				}
				up = append(up, n)
			}
			level = up
		}
		root := level[0]

		// Materialize nodes in shuffled allocation order.
		var all []*btreeNode
		var collect func(*btreeNode)
		collect = func(n *btreeNode) {
			all = append(all, n)
			for _, c := range n.children {
				collect(c)
			}
		}
		collect(root)
		order := rng.Perm(len(all))
		for _, i := range order {
			all[i].addr = m.Alloc(128, 128)
		}
		for _, n := range all {
			m.MustWrite64(n.addr, uint64(len(n.keys)))
			leafFlag := uint64(0)
			if n.leaf {
				leafFlag = 1
			}
			m.MustWrite64(n.addr+8, leafFlag)
			for i, k := range n.keys {
				m.MustWrite64(n.addr+16+uint64(i)*8, k)
			}
			if n.leaf {
				for i, v := range n.values {
					m.MustWrite64(n.addr+72+uint64(i)*8, v)
				}
			} else {
				for i, c := range n.children {
					m.MustWrite64(n.addr+72+uint64(i)*8, c.addr)
				}
			}
		}

		// Lookup keys (mixed present/absent) and host-reference search,
		// checked against the entries the tree was built from.
		consistent := true
		lkBase, expected := lookupKeys(m, rng, w.Lookups, keys, func(k uint64) (uint64, bool) {
			v, ok := hostSearch(root, k)
			if hv, hok := values[k]; !ok && hok && hv != v {
				consistent = false
			}
			return v, ok
		})
		if !consistent {
			return nil, fmt.Errorf("btree: host search inconsistent")
		}
		var in Instance
		in.Regs[1] = root.addr
		in.Regs[3] = lkBase
		in.Regs[4] = uint64(w.Lookups)
		in.Expected = expected
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

func smallestKey(n *btreeNode) uint64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// hostSearch mirrors the assembly's routing exactly: within a node, find
// the first position whose key exceeds the probe (stepping past an exact
// match); descend into that child, or check position-1 at a leaf.
func hostSearch(n *btreeNode, key uint64) (uint64, bool) {
	for {
		i := 0
		for i < len(n.keys) {
			if n.keys[i] > key {
				break
			}
			if n.keys[i] == key {
				i++
				break
			}
			i++
		}
		if n.leaf {
			if i == 0 {
				return 0, false
			}
			if n.keys[i-1] == key {
				return n.values[i-1], true
			}
			return 0, false
		}
		n = n.children[i]
	}
}
