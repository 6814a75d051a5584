// Package workloads provides the benchmark programs the experiments run:
// memory-bound kernels from the paper's motivating domains (pointer
// chasing, database hash joins and index lookups — the "killer
// nanoseconds" workloads [28]) plus cache-friendly and compute-bound
// foils.
//
// Each workload is built twice: the virtual-ISA program that the simulator
// executes and the instrumenter rewrites, and a host-side Go reference
// that computes the expected result over the same simulated memory. Every
// run of every experiment validates against the reference, so a
// miscompiled rewrite or an unsound live mask turns into a hard test
// failure rather than a plausible-looking number.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Instance is one coroutine's worth of work: its initial registers and
// the architecturally expected result (R1 at HALT).
type Instance struct {
	Regs     [isa.NumRegs]uint64
	Expected uint64
}

// Built is the output of one Spec build: the program (entry at symbol
// "main") and its instances.
type Built struct {
	Prog      *isa.Program
	Instances []Instance
}

// Spec describes a buildable workload.
type Spec interface {
	// Name identifies the workload in scenarios and reports.
	Name() string
	// Build allocates the workload's data in m and returns its program
	// and instances. Builders draw all randomness from rng so scenarios
	// are reproducible.
	Build(m *mem.Memory, rng *rand.Rand) (*Built, error)
}

// Part is one workload inside a composed scenario.
type Part struct {
	Name      string
	Entry     int
	Instances []Instance
	// StackTops holds one stack top per instance, allocated by Compose.
	StackTops []uint64
}

// Scenario is a composed machine program: one or more workloads linked
// into a single image over a shared memory.
type Scenario struct {
	Mem   *mem.Memory
	Prog  *isa.Program
	Parts []Part
}

// Part returns the named part, or nil.
func (s *Scenario) Part(name string) *Part {
	for i := range s.Parts {
		if s.Parts[i].Name == name {
			return &s.Parts[i]
		}
	}
	return nil
}

// stackSize is the per-instance simulated stack reservation.
const stackSize = 4096

// Compose builds the specs into a fresh memory of memBytes and links
// their programs into one image. Each instance gets its own stack.
func Compose(memBytes uint64, seed int64, specs ...Spec) (*Scenario, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workloads: no specs")
	}
	m := mem.NewMemory(memBytes)
	rng := rand.New(rand.NewSource(seed))
	combined := &isa.Program{Symbols: map[string]int{}}
	sc := &Scenario{Mem: m}

	for _, spec := range specs {
		built, stackTops, err := safeBuild(spec, m, rng)
		if err != nil {
			return nil, fmt.Errorf("workloads: building %s: %w", spec.Name(), err)
		}
		offset := len(combined.Instrs)
		for _, in := range built.Prog.Instrs {
			if in.Op.IsBranch() {
				in.Imm += int64(offset)
			}
			combined.Instrs = append(combined.Instrs, in)
		}
		entry := offset
		for name, idx := range built.Prog.Symbols {
			combined.Symbols[spec.Name()+"."+name] = idx + offset
			if name == "main" {
				entry = idx + offset
			}
		}
		sc.Parts = append(sc.Parts, Part{Name: spec.Name(), Entry: entry, Instances: built.Instances, StackTops: stackTops})
	}
	if err := combined.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: linked program invalid: %w", err)
	}
	sc.Prog = combined
	return sc, nil
}

// safeBuild builds spec and reserves one stack per instance, converting
// allocator exhaustion panics from either step into errors.
func safeBuild(spec Spec, m *mem.Memory, rng *rand.Rand) (b *Built, stackTops []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if b, err = spec.Build(m, rng); err != nil {
		return nil, nil, err
	}
	for range b.Instances {
		base := m.Alloc(stackSize, 16)
		stackTops = append(stackTops, base+stackSize)
	}
	return b, stackTops, nil
}
