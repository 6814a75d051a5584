package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Core is one simulated core as the barrier kernel sees it: anything
// that can advance its own clock to a cycle deadline. done reports that
// the core has nothing left to run. Kernel.Step calls RunQuantum through
// this interface, which the static call graph does not follow: every
// implementation carries its own //shsim:cycle-entry and
// //shsim:quantum-phase roots.
type Core interface {
	RunQuantum(deadline uint64) (done bool, err error)
}

// Kernel is the cycle-quantum barrier: it advances every core one
// quantum, commits the shared LLC at the barrier and keeps the first
// core error. Both the closed-loop Machine and the open-loop service
// dispatcher step their cores through it. Everything runs on the
// caller's goroutine; a Kernel is not safe for concurrent use.
type Kernel struct {
	llc     *mem.SharedLLC // nil: nothing to commit (1-core machines)
	quantum uint64
	cores   []Core
	done    []bool

	barrier uint64 // last committed barrier cycle
	quanta  uint64

	finished bool
	err      error
}

// NewKernel prepares a kernel over cores, committing llc (nil for none)
// at every barrier.
func NewKernel(llc *mem.SharedLLC, quantum uint64, cores []Core) *Kernel {
	return &Kernel{llc: llc, quantum: quantum, cores: cores, done: make([]bool, len(cores))}
}

// Step runs one cycle quantum: every core not yet done advances to the
// next barrier, in core-index order, then the shared LLC commits the
// quantum's traffic in the same order. Returns done=true once every
// core is done or an error stopped the run (the first, by core index;
// sticky). The steady-state path performs no allocation.
//
// Step is the barrier: the only place shared LLC state commits, and a
// cycle-domain entry point in its own right (all forward progress of
// the many-core clock flows through here).
//
//shsim:commit-phase
//shsim:cycle-entry
func (k *Kernel) Step() (bool, error) {
	if k.finished {
		return true, k.err
	}
	k.barrier += k.quantum
	all := true
	for i, c := range k.cores {
		if k.done[i] {
			continue
		}
		done, err := c.RunQuantum(k.barrier)
		if err != nil && k.err == nil {
			k.err = fmt.Errorf("core %d: %w", i, err)
		}
		k.done[i] = done
		all = all && done
	}
	if k.llc != nil {
		k.llc.Commit()
	}
	k.quanta++
	k.finished = all || k.err != nil
	return k.finished, k.err
}

// Barrier returns the last committed barrier cycle.
func (k *Kernel) Barrier() uint64 { return k.barrier }

// Quanta returns the number of quanta stepped so far.
func (k *Kernel) Quanta() uint64 { return k.quanta }

// Machine is a running many-core simulation. Build one with New and
// drive it with Step (one quantum at a time) or Run (to completion). A
// Machine is not safe for concurrent use (see Kernel).
type Machine struct {
	topo   Topology
	rc     RunConfig
	llc    *mem.SharedLLC
	cores  []*coreRunner
	k      *Kernel
	folded bool // run folded into the shared registry
}

// coreRunner is one simulated core: its harness-built scenario and the
// closed-loop run advancing it.
type coreRunner struct {
	id   int
	mach core.Machine

	ts   *core.TaskSet
	ex   *exec.Executor // owns the cpu.Core the run drives
	tick *exec.Ticker
}

// RunQuantum advances the core's run to the deadline.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *coreRunner) RunQuantum(deadline uint64) (bool, error) {
	return c.tick.Run(deadline)
}

// New builds a many-core machine: per-core harnesses (each core
// composes the workload over its own memory with its strided seed),
// per-core engines observing through rc.Exec's one tracer and registry,
// and — for multi-core topologies — the shared LLC attached to every
// core's hierarchy in core-index order.
func New(topo Topology, rc RunConfig) (*Machine, error) {
	topo = topo.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := rc.validate(); err != nil {
		return nil, err
	}
	m := &Machine{topo: topo, rc: rc}
	if topo.Cores > 1 {
		llc, err := mem.NewSharedLLC(topo.LLC)
		if err != nil {
			return nil, err
		}
		m.llc = llc
	}

	cores := make([]Core, 0, topo.Cores)
	for i := 0; i < topo.Cores; i++ {
		c := &coreRunner{id: i, mach: topo.CoreMachine(i)}
		h, err := core.NewHarness(c.mach, rc.Spec)
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		img := h.Baseline()
		count := rc.Tasks
		if rc.Mode == ModeSolo {
			count = 1
		}
		ts, err := h.Tasks(img, rc.Spec.Name(), coro.Primary, count)
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		c.ts = ts

		cfg := rc.Exec
		cfg.Tracer = trace.OnCore(cfg.Tracer, i)
		c.ex = h.NewExecutor(img, cfg)
		if m.llc != nil {
			c.ex.Core.Hier.AttachLLC(m.llc.NewView(i))
		}
		if rc.Mode == ModeSMT {
			c.tick, err = c.ex.NewSMTTicker(ts.Tasks, exec.SMTSlice)
		} else {
			c.tick, err = c.ex.NewTicker(ts.Tasks, rc.Mode == ModeSolo)
		}
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		m.cores = append(m.cores, c)
		cores = append(cores, c)
	}
	m.k = NewKernel(m.llc, topo.Quantum, cores)
	return m, nil
}

// Step runs one cycle quantum through the kernel. Returns done=true
// once every core has halted (or an error stopped the run).
//
//shsim:cycle-entry
func (m *Machine) Step() (bool, error) {
	done, err := m.k.Step()
	if err != nil {
		return true, fmt.Errorf("machine: %w", err)
	}
	return done, nil
}

// Run steps the machine to completion, validates every core's
// architectural results against the workload's expectations, and
// returns the per-core and aggregate statistics. On a finished machine
// Run steps nothing and returns the same statistics again.
func (m *Machine) Run() (Stats, error) {
	for {
		done, err := m.Step()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	for _, c := range m.cores {
		if err := c.ts.Validate(); err != nil {
			return Stats{}, fmt.Errorf("machine: core %d: %w", c.id, err)
		}
	}
	return m.stats(), nil
}

// Close ends the run: Step afterwards reports done, with the run's
// sticky error if it failed. Idempotent; there is nothing to release.
func (m *Machine) Close() { m.k.finished = true }

// Quanta returns the number of quanta stepped so far.
func (m *Machine) Quanta() uint64 { return m.k.Quanta() }
