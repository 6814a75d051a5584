// Package smt models simultaneous multithreading as a baseline: K hardware
// contexts multiplex one core, switching on memory stalls with zero
// software overhead.
//
// This captures both limitations the paper attributes to SMT (§1): the
// degree of concurrency is capped at the hardware context count (2–8 on
// real cores), and the hardware has no notion of application priority — a
// latency-sensitive thread is multiplexed like any other, so its latency
// inflates with the number of co-runners.
//
// The stall-switch loop itself is exec.SMT, on the exec contract beside
// the coroutine loops; this package holds the model's configuration and
// Run, the loop over a bare core.
package smt

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
)

// Config tunes the SMT model.
type Config struct {
	// Contexts is the number of hardware threads (2-8 on real parts).
	Contexts int
	// Quantum is the fine-grained multiplexing grain in cycles: the model
	// rotates runnable contexts every Quantum busy cycles, approximating
	// per-cycle issue-slot sharing. This is what makes SMT inflate the
	// latency of a thread sharing the core with compute-bound peers —
	// the hardware cannot prioritize. Zero selects DefaultConfig's.
	Quantum uint64
	// MaxSteps bounds total retired instructions (runaway guard). Zero
	// selects DefaultConfig's.
	MaxSteps uint64
}

// DefaultConfig models 2-way SMT (Intel Hyper-Threading) with a fine
// multiplexing grain.
func DefaultConfig() Config {
	return Config{Contexts: 2, Quantum: 4, MaxSteps: 200_000_000}
}

// Fit checks that threads software threads fit cfg's hardware contexts
// and returns cfg with a zero Quantum or MaxSteps replaced by
// DefaultConfig's.
func (cfg Config) Fit(threads int) (Config, error) {
	switch {
	case cfg.Contexts <= 0:
		return cfg, fmt.Errorf("smt: context count must be positive")
	case threads == 0:
		return cfg, fmt.Errorf("smt: no contexts")
	case threads > cfg.Contexts:
		return cfg, fmt.Errorf("smt: %d software threads exceed %d hardware contexts", threads, cfg.Contexts)
	}
	def := DefaultConfig()
	if cfg.Quantum == 0 {
		cfg.Quantum = def.Quantum
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = def.MaxSteps
	}
	return cfg, nil
}

// Run multiplexes the contexts on the core until all halt. Software
// yields (YIELD/CYIELD) retire as no-ops: SMT is hardware-only and cannot
// see them. len(ctxs) must not exceed cfg.Contexts.
//
//shsim:cycle-entry
func Run(core *cpu.Core, cfg Config, ctxs []*coro.Context) (exec.Stats, error) {
	cfg, err := cfg.Fit(len(ctxs))
	if err != nil {
		return exec.Stats{}, err
	}
	tasks := make([]*exec.Task, len(ctxs))
	for i, ctx := range ctxs {
		tasks[i] = &exec.Task{Ctx: ctx}
	}
	return exec.New(core, exec.Config{MaxSteps: cfg.MaxSteps}).RunSMT(tasks, cfg.Quantum)
}
