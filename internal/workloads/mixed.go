package workloads

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// MixedChase interleaves a DRAM-resident pointer chase with an L1-resident
// one in the same loop: one static load that nearly always misses next to
// two that nearly always hit. It is the discriminating workload for the
// instrumentation-threshold trade-off (E5) — a per-site policy must
// instrument the cold load and leave the hot ones alone.
type MixedChase struct {
	// ColdNodes sizes the missing chain (footprint ColdNodes × 64 B).
	ColdNodes int
	// HotNodes sizes the cache-resident chain; keep it within L1.
	HotNodes int
	// Hops is the iterations per instance.
	Hops int
	// Instances is the number of independent chain pairs.
	Instances int
}

// Name implements Spec.
func (MixedChase) Name() string { return "mixedchase" }

// Register plan: r1=cold cursor, r2=hot cursor, r5=hot payload, r6=payload
// accumulator, r3=remaining hops.
const mixedChaseAsm = `
main:
    load r1, [r1]        ; cold chain: likely miss
    load r2, [r2]        ; hot chain: cache hit
    load r5, [r2+8]      ; hot payload: cache hit
    add  r6, r6, r5
    addi r3, r3, -1
    cmpi r3, 0
    jgt  main
    add  r1, r1, r6
    halt
`

// Build implements Spec.
func (w MixedChase) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.ColdNodes < 2 || w.HotNodes < 2 || w.Hops < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("mixed chase: need ≥2 nodes per chain, ≥1 hops and instances")
	}
	b := &Built{Prog: isa.MustAssemble(mixedChaseAsm)}
	mkChain := func(n int) uint64 {
		base := m.Alloc(uint64(n)*64, 64)
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			from := base + uint64(perm[i])*64
			to := base + uint64(perm[(i+1)%n])*64
			m.MustWrite64(from, to)
			m.MustWrite64(from+8, uint64(rng.Intn(1<<16)))
		}
		return base + uint64(perm[0])*64
	}
	for inst := 0; inst < w.Instances; inst++ {
		coldHead := mkChain(w.ColdNodes)
		hotHead := mkChain(w.HotNodes)
		// Host reference walk, over the nodes just written.
		cold, hot := coldHead, hotHead
		var acc uint64
		for i := 0; i < w.Hops; i++ {
			cold = m.MustRead64(cold)
			hot = m.MustRead64(hot)
			acc += m.MustRead64(hot + 8)
		}
		var in Instance
		in.Regs[1] = coldHead
		in.Regs[2] = hotHead
		in.Regs[3] = uint64(w.Hops)
		in.Expected = cold + acc
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// UnrolledCompute is a compute loop with a long straight-line body — the
// workload whose scavenger-yield spacing is governed by the target
// interval rather than by loop back-edges (E9). The body is BlockInstrs
// unrolled increments.
type UnrolledCompute struct {
	// BlockInstrs is the straight-line body length in instructions.
	BlockInstrs int
	// Iters is the number of body executions per instance.
	Iters int
	// Instances is the coroutine count.
	Instances int
}

// Name implements Spec.
func (UnrolledCompute) Name() string { return "unrolled" }

// Build implements Spec.
func (w UnrolledCompute) Build(_ *mem.Memory, _ *rand.Rand) (*Built, error) {
	if w.BlockInstrs < 1 || w.Iters < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("unrolled compute: need ≥1 block instrs, iters and instances")
	}
	var src strings.Builder
	src.WriteString("main:\n")
	for i := 0; i < w.BlockInstrs; i++ {
		src.WriteString("    addi r2, r2, 1\n")
	}
	src.WriteString(`
    addi r3, r3, -1
    cmpi r3, 0
    jgt  main
    mov  r1, r2
    halt
`)
	b := &Built{Prog: isa.MustAssemble(src.String())}
	for inst := 0; inst < w.Instances; inst++ {
		var in Instance
		in.Regs[3] = uint64(w.Iters)
		in.Expected = uint64(w.BlockInstrs) * uint64(w.Iters)
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}
