package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"

	"repro/internal/isa"
)

// PointerChase is the canonical memory-latency-bound kernel: follow a
// pseudo-random circular linked list, summing node payloads. With a
// footprint beyond the last-level cache, every hop is a DRAM miss and the
// dependent load chain defeats any hardware prefetcher — the exact shape
// the paper's mechanism targets.
type PointerChase struct {
	// Nodes is the chain length; footprint is Nodes × 64 bytes.
	Nodes int
	// Hops is the number of pointer dereferences per instance.
	Hops int
	// Instances is the number of independent chains/coroutines.
	Instances int
}

// Name implements Spec.
func (PointerChase) Name() string { return "chase" }

// chaseAsm: r1=current node, r2=payload accumulator, r3=remaining hops.
const chaseAsm = `
main:
    load r4, [r1+8]      ; payload
    add  r2, r2, r4
    load r1, [r1]        ; next (the dependent, likely-missing load)
    addi r3, r3, -1
    cmpi r3, 0
    jgt  main
    mov  r1, r2
    halt
`

// Build implements Spec.
func (w PointerChase) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Nodes < 2 || w.Hops < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("pointer chase: need ≥2 nodes, ≥1 hops, ≥1 instances")
	}
	b := &Built{Prog: isa.MustAssemble(chaseAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		head := Chain(m, rng, w.Nodes, 1<<20)
		// Host reference walk, over the nodes just written.
		var sum uint64
		cur := head
		for h := 0; h < w.Hops; h++ {
			sum += m.MustRead64(cur + 8)
			cur = m.MustRead64(cur)
		}
		var in Instance
		in.Regs[1] = head
		in.Regs[3] = uint64(w.Hops)
		in.Expected = sum
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// Chain lays out a circular list of n 64-byte nodes in a fresh
// allocation, linked in the order of one rng.Perm(n), and returns its
// head. Word 0 of each node points to the next; with payload > 0, word 1
// holds rng.Intn(payload), drawn node by node in link order.
func Chain(m *mem.Memory, rng *rand.Rand, n, payload int) uint64 {
	base := m.Alloc(uint64(n)*64, 64)
	perm := rng.Perm(n)
	for i := range n {
		from := base + uint64(perm[i])*64
		m.MustWrite64(from, base+uint64(perm[(i+1)%n])*64)
		if payload > 0 {
			m.MustWrite64(from+8, uint64(rng.Intn(payload)))
		}
	}
	return base + uint64(perm[0])*64
}

// Compute is a pure-ALU loop: the cache-resident foil (and the default
// scavenger payload). It increments a counter Iters times.
type Compute struct {
	Iters     int
	Instances int
}

// Name implements Spec.
func (Compute) Name() string { return "compute" }

const computeAsm = `
main:
    addi r2, r2, 1
    addi r3, r3, -1
    cmpi r3, 0
    jgt  main
    mov  r1, r2
    halt
`

// Build implements Spec.
func (w Compute) Build(_ *mem.Memory, _ *rand.Rand) (*Built, error) {
	if w.Iters < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("compute: need ≥1 iters and instances")
	}
	b := &Built{Prog: isa.MustAssemble(computeAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		var in Instance
		in.Regs[3] = uint64(w.Iters)
		in.Expected = uint64(w.Iters)
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// ArrayScan sums a contiguous array: sequential accesses that hit in the
// caches after the first touch of each line, so profile-guided
// instrumentation should leave it essentially alone.
type ArrayScan struct {
	N         int
	Instances int
}

// Name implements Spec.
func (ArrayScan) Name() string { return "scan" }

const scanAsm = `
main:
    load r4, [r1]
    add  r3, r3, r4
    addi r1, r1, 8
    addi r2, r2, -1
    cmpi r2, 0
    jgt  main
    mov  r1, r3
    halt
`

// Build implements Spec.
func (w ArrayScan) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.N < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("array scan: need ≥1 elements and instances")
	}
	b := &Built{Prog: isa.MustAssemble(scanAsm)}
	for inst := 0; inst < w.Instances; inst++ {
		base := m.Alloc(uint64(w.N)*8, 64)
		var sum uint64
		for i := 0; i < w.N; i++ {
			v := uint64(rng.Intn(1 << 16))
			m.MustWrite64(base+uint64(i)*8, v)
			sum += v
		}
		var in Instance
		in.Regs[1] = base
		in.Regs[2] = uint64(w.N)
		in.Expected = sum
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// PaddedChase is a pointer chase with a configurable compute loop between
// hops. The F1 spectrum experiment uses it to model applications whose
// per-event compute scales with event duration (keeping the un-hidden
// stall fraction roughly constant across the duration axis).
type PaddedChase struct {
	// Nodes, Hops and Instances as in PointerChase.
	Nodes, Hops, Instances int
	// Pad is the number of filler-loop iterations between hops; each
	// iteration costs ~3 cycles.
	Pad int
}

// Name implements Spec.
func (PaddedChase) Name() string { return "padchase" }

// Register plan: r1=cursor, r2=payload accumulator, r3=remaining hops,
// r7=pad count, r6=pad scratch.
const paddedChaseAsm = `
main:
    load r4, [r1+8]
    add  r2, r2, r4
    load r1, [r1]
    mov  r6, r7
pad:
    cmpi r6, 0
    jle  pad_done
    addi r6, r6, -1
    jmp  pad
pad_done:
    addi r3, r3, -1
    cmpi r3, 0
    jgt  main
    mov  r1, r2
    halt
`

// Build implements Spec.
func (w PaddedChase) Build(m *mem.Memory, rng *rand.Rand) (*Built, error) {
	if w.Nodes < 2 || w.Hops < 1 || w.Instances < 1 || w.Pad < 0 {
		return nil, fmt.Errorf("padded chase: need ≥2 nodes, ≥1 hops, ≥1 instances, pad ≥ 0")
	}
	inner := PointerChase{Nodes: w.Nodes, Hops: w.Hops, Instances: w.Instances}
	built, err := inner.Build(m, rng)
	if err != nil {
		return nil, err
	}
	built.Prog = isa.MustAssemble(paddedChaseAsm)
	for i := range built.Instances {
		built.Instances[i].Regs[7] = uint64(w.Pad)
	}
	return built, nil
}
