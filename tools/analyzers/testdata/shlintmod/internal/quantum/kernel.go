// Package quantum is the barrierguard integration fixture's kernel
// side: quantum-phase code reaching the shared LLC across the package
// boundary.
package quantum

import "shlintfixture/internal/llc"

type core struct{ llc *llc.SharedLLC }

// flush sneaks the commit into the quantum path.
func (c *core) flush() { c.llc.Commit() }

// Run is the seeded protocol violation: a quantum-phase root that
// reaches the mutating method through a helper and a package boundary.
//
//shsim:quantum-phase
func (c *core) Run() {
	_ = c.llc.Demand(1)
	c.flush()
}

// Barrier is the licensed path: commit-phase code may mutate.
//
//shsim:commit-phase
func (c *core) Barrier() { c.llc.Commit() }
