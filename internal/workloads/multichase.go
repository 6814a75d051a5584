package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// MultiChase advances three independent pointer chains in lockstep. The
// three loads per iteration are adjacent and mutually independent — the
// exact shape the paper's yield-coalescing optimization targets (§3.2):
// one yield can amortize the switch across three prefetched misses.
type MultiChase struct {
	// Nodes is the length of each chain.
	Nodes int
	// Hops is the number of lockstep iterations per instance.
	Hops int
	// Instances is the number of independent chain triples.
	Instances int
}

// Name implements Spec.
func (MultiChase) Name() string { return "multichase" }

// Register plan: r1,r2,r3 = chain cursors, r4 = remaining hops,
// r5 = payload accumulator.
const multiChaseAsm = `
main:
    load r1, [r1]        ; three independent likely-missing loads
    load r2, [r2]
    load r3, [r3]
    load r6, [r1+8]      ; payloads (same lines, hot after the chase loads)
    load r7, [r2+8]
    load r8, [r3+8]
    add  r5, r5, r6
    add  r5, r5, r7
    add  r5, r5, r8
    addi r4, r4, -1
    cmpi r4, 0
    jgt  main
    mov  r1, r5
    halt
`

// Build implements Spec.
func (w MultiChase) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Nodes < 2 || w.Hops < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("multichase: need ≥2 nodes, ≥1 hops, ≥1 instances")
	}
	b := &Built{Prog: isa.MustAssemble(multiChaseAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		var heads [3]uint64
		for c := range heads {
			heads[c] = Chain(m, rng, w.Nodes, 1<<16)
		}
		// Host reference, over the nodes just written: advance all three,
		// then sum the payloads of the new positions, exactly as the
		// assembly does.
		cur := heads
		var sum uint64
		for h := 0; h < w.Hops; h++ {
			for c := 0; c < 3; c++ {
				cur[c] = m.MustRead64(cur[c])
			}
			for c := 0; c < 3; c++ {
				sum += m.MustRead64(cur[c] + 8)
			}
		}
		var in Instance
		in.Regs[1] = heads[0]
		in.Regs[2] = heads[1]
		in.Regs[3] = heads[2]
		in.Regs[4] = uint64(w.Hops)
		in.Expected = sum
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}
