// Package engine is the fixture for detflow's interprocedural scope:
// annotated cycle-domain entry points that reach nondeterminism sources
// only through wrappers and package boundaries. "engine" is not a
// cycle-domain package name, so the backstop scope never looks here.
package engine

import (
	"time"

	"shlintfixture/internal/fillutil"
)

// Engine mimics the shape of a per-core step engine.
type Engine struct {
	fills    map[uint64]uint64
	installs []uint64
}

// harvest wraps the helper — one extra frame between the entry point
// and the source.
func (e *Engine) harvest(now uint64) []uint64 {
	return fillutil.Ready(e.fills, now)
}

// Step is the PR-1 reclaim bug in its disguised interprocedural form.
//
//shsim:cycle-entry
func (e *Engine) Step(now uint64) {
	e.installs = append(e.installs, e.harvest(now)...)
}

func stamp() int64 { return time.Now().UnixNano() }

// Tick leaks wall-clock time through a local helper.
//
//shsim:cycle-entry
func (e *Engine) Tick() int64 { return stamp() }

// Drain picks among ready queues with a multi-case select: the runtime
// chooses pseudo-randomly among ready cases.
//
//shsim:cycle-entry
func Drain(a, b chan uint64) uint64 {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
