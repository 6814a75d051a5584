// Package mem is the fixture for detflow's backstop scope: a stdlib-only
// reduction of the PR-1 reclaim nondeterminism bug with no cycle-entry
// root, compiled and vetted by a real `go vet -vettool=shlint`
// invocation in the analyzer integration test.
package mem

import (
	"math/rand"
	"time"
)

type fill struct {
	line  uint64
	ready uint64
}

// Hierarchy mimics the shape of the original buggy mem.Hierarchy: an
// in-flight fill table keyed by cache line.
type Hierarchy struct {
	fills    map[uint64]fill
	installs []uint64
}

// Reclaim installs every completed fill. BUG (the PR-1 reduction):
// map iteration order decides install order, and install order decides
// eviction victims downstream — nondeterministic across runs.
func (h *Hierarchy) Reclaim(now uint64) {
	for line, f := range h.fills {
		if f.ready <= now {
			h.installs = append(h.installs, line)
			delete(h.fills, line)
		}
	}
}

// Stamp leaks wall-clock time into the cycle domain.
func (h *Hierarchy) Stamp() int64 {
	return time.Now().UnixNano()
}

// Jitter draws from the process-seeded global source.
func Jitter() uint64 {
	return uint64(rand.Intn(64))
}
