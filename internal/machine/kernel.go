package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/smt"
	"repro/internal/trace"
)

// Core is one simulated core as the barrier kernel sees it: anything
// that can advance its own clock to a cycle deadline. done reports that
// the core has nothing left to run. RunQuantum is called on the core's
// own goroutine through this interface, which the static call graph
// does not follow: every implementation carries its own
// //shsim:cycle-entry and //shsim:quantum-phase roots.
type Core interface {
	RunQuantum(deadline uint64) (done bool, err error)
}

// Kernel is the cycle-quantum barrier: it owns one goroutine per core,
// the two channel operations per core per quantum, the shared-LLC
// commit at the barrier, first-error propagation and shutdown. Both the
// closed-loop Machine and the open-loop service dispatcher step their
// cores through it. Not safe for concurrent use: Step and Close must be
// called from one goroutine, which is also the only place the shared
// LLC commits.
type Kernel struct {
	llc     *mem.SharedLLC // nil: nothing to commit (1-core machines)
	quantum uint64
	workers []worker

	barrier uint64 // last committed barrier cycle
	quanta  uint64

	started  bool
	finished bool
	closed   bool
	err      error
}

// worker is one core's goroutine state and handshake channels.
type worker struct {
	core  Core
	done  bool
	err   error
	start chan uint64   // kernel → worker: quantum deadline
	ack   chan struct{} // worker → kernel: quantum complete
}

// NewKernel prepares a kernel over cores, committing llc (nil for none)
// at every barrier. Goroutines start at the first Step.
func NewKernel(llc *mem.SharedLLC, quantum uint64, cores []Core) *Kernel {
	k := &Kernel{llc: llc, quantum: quantum, workers: make([]worker, len(cores))}
	for i, c := range cores {
		k.workers[i] = worker{core: c, start: make(chan uint64), ack: make(chan struct{})}
	}
	return k
}

// loop is the worker goroutine: one quantum per handshake. It performs
// no allocation and exits when the kernel closes the start channel.
//
//shsim:quantum-phase
func (w *worker) loop() {
	for deadline := range w.start {
		if !w.done && w.err == nil {
			w.done, w.err = w.core.RunQuantum(deadline)
		}
		w.ack <- struct{}{}
	}
}

// Step runs one cycle quantum: every core advances to the next barrier
// on its own goroutine, the kernel waits for all of them, and the
// shared LLC commits the quantum's traffic in core-index order. Returns
// done=true once every core is done, an error stopped the run (the
// first, by core index; sticky) or the kernel was closed. The
// steady-state path performs no allocation.
//
// Step is the barrier: the only place shared LLC state commits, and a
// cycle-domain entry point in its own right (all forward progress of
// the many-core clock flows through here). The channel handshake is
// both the determinism barrier and the happens-before edges the race
// detector needs.
//
//shsim:commit-phase
//shsim:cycle-entry
func (k *Kernel) Step() (bool, error) {
	if k.finished || k.closed {
		return true, k.err
	}
	if !k.started {
		for i := range k.workers {
			go k.workers[i].loop()
		}
		k.started = true
	}
	k.barrier += k.quantum
	for i := range k.workers {
		k.workers[i].start <- k.barrier
	}
	for i := range k.workers {
		<-k.workers[i].ack
	}
	if k.llc != nil {
		k.llc.Commit()
	}
	k.quanta++
	all := true
	for i := range k.workers {
		w := &k.workers[i]
		if w.err != nil {
			k.err = fmt.Errorf("core %d: %w", i, w.err)
			k.finished = true
			return true, k.err
		}
		all = all && w.done
	}
	k.finished = all
	return all, nil
}

// Close shuts the worker goroutines down. Idempotent; the kernel cannot
// be stepped afterwards.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	if k.started {
		for i := range k.workers {
			close(k.workers[i].start)
		}
	}
}

// Barrier returns the last committed barrier cycle.
func (k *Kernel) Barrier() uint64 { return k.barrier }

// Quanta returns the number of quanta stepped so far.
func (k *Kernel) Quanta() uint64 { return k.quanta }

// Machine is a running many-core simulation. Build one with New, drive
// it with Step (one quantum at a time) or Run (to completion), then
// Close. A Machine is not safe for concurrent use (see Kernel).
type Machine struct {
	topo  Topology
	rc    RunConfig
	llc   *mem.SharedLLC
	cores []*coreRunner
	k     *Kernel
}

// coreRunner is one simulated core: its harness-built scenario, the
// engine advancing it and per-core observability.
type coreRunner struct {
	id   int
	mach core.Machine

	ts   *core.TaskSet
	ex   *exec.Executor // owns the cpu.Core either engine drives
	tick *exec.Ticker   // ModeSymmetric / ModeSolo
	smt  *smt.Runner    // ModeSMT

	reg  *metrics.Registry
	ring *trace.Ring
}

// RunQuantum advances the core's engine to the deadline.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *coreRunner) RunQuantum(deadline uint64) (bool, error) {
	if c.tick != nil {
		return c.tick.Run(deadline)
	}
	return c.smt.Run(deadline)
}

// New builds a many-core machine: per-core harnesses (each core
// composes the workload over its own memory with its strided seed),
// per-core engines, and — for multi-core topologies — the shared LLC
// attached to every core's hierarchy in core-index order.
func New(topo Topology, rc RunConfig) (*Machine, error) {
	topo = topo.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := rc.validate(topo.Cores); err != nil {
		return nil, err
	}
	part := rc.Part
	if part == "" {
		part = rc.Spec.Name()
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
		if rc.Metrics {
			c.reg = &metrics.Registry{}
		}
		if rc.TraceN > 0 {
			c.ring = trace.NewRing(rc.TraceN)
		}
		count := rc.Tasks
		if rc.Mode == ModeSolo {
			count = 1
		}
		ts, err := h.Tasks(img, part, coro.Primary, count)
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		c.ts = ts

		cfg := rc.Exec
		if cfg.Tracer == nil && c.ring != nil {
			cfg.Tracer = c.ring
		}
		if cfg.Metrics == nil {
			cfg.Metrics = c.reg
		}
		if rc.Mode == ModeSMT {
			cfg.DisableSuperblocks = rc.SMT.DisableSuperblocks
		}
		c.ex = h.NewExecutor(img, cfg)
		if m.llc != nil {
			c.ex.Core.Hier.AttachLLC(m.llc.NewView(i))
		}
		if rc.Mode == ModeSMT {
			ctxs := make([]*coro.Context, len(ts.Tasks))
			for j, t := range ts.Tasks {
				ctxs[j] = t.Ctx
			}
			smtCfg := rc.SMT
			if smtCfg.Contexts == 0 {
				smtCfg.Contexts = len(ctxs)
			}
			c.smt, err = smt.NewRunner(c.ex.Core, smtCfg, ctxs)
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
// returns the per-core and aggregate statistics.
func (m *Machine) Run() (Stats, error) {
	defer m.Close()
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

// Close shuts the worker goroutines down. Idempotent; the Machine
// cannot be stepped afterwards.
func (m *Machine) Close() { m.k.Close() }

// Quanta returns the number of quanta stepped so far.
func (m *Machine) Quanta() uint64 { return m.k.Quanta() }

// TraceRing returns core i's trace ring, or nil when tracing is off.
func (m *Machine) TraceRing(i int) *trace.Ring { return m.cores[i].ring }
