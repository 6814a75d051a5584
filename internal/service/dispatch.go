package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/mem"
)

// RunQuantum makes a dispatched cell — no arrival process of its own —
// one core of the barrier kernel (machine.Core). It dispatches what the
// barrier delivered into free slots (the loop itself resumes a block
// the last barrier cut without consulting its source), advances the
// scheduling loop to the deadline, then tops the clock up to the
// barrier: the loops return with Now ≥ deadline on every nil path, but
// an idle top-up here keeps the invariant local and guards causality —
// a core whose clock lagged the barrier could otherwise complete a
// request before its recorded arrival. A serving core is never done;
// the dispatcher decides when the cell has drained.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) RunQuantum(deadline uint64) (bool, error) {
	c.fill()
	if err := c.run(deadline); err != nil {
		return false, err
	}
	if now := c.ex.Core.Now; now < deadline {
		c.ex.Core.AdvanceIdle(deadline - now)
	}
	return false, nil
}

// dispatcher serves one multi-core cell: a single open-loop arrival
// stream (seeded from the template machine, unstrided) feeds the shared
// bounded admission queue; at every quantum barrier the dispatcher
// drains it into per-core local run queues in deterministic core-index
// order, using each core's queue depth plus in-flight count as of the
// just-committed quantum as the load signal (one-quantum-lag feedback,
// like the LLC commit's). The kernel then advances the cores one
// quantum concurrently against frozen shared-LLC state and commits
// their traffic in core-index order — so the whole cell is a pure
// function of (machine, config, cell), byte-identical at any GOMAXPROCS.
type dispatcher struct {
	cfg  Config
	cl   Cell
	topo machine.Topology

	cores []*cell
	k     *machine.Kernel

	arr *feed

	shared  queue  // bounded admission queue (capacity cfg.Queue)
	dropped uint64 // rejected at a full admission queue
}

// newDispatcher builds the per-core cells (each over its strided
// CoreMachine, its view of the shared LLC attached in core-index
// order) and the one shared arrival process.
func newDispatcher(mach core.Machine, cfg Config, cl Cell) (*dispatcher, error) {
	topo := cfg.Topology
	topo.Machine = mach
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	llc, err := mem.NewSharedLLC(topo.LLC)
	if err != nil {
		return nil, err
	}
	d := &dispatcher{cfg: cfg, cl: cl, topo: topo, shared: newQueue(cfg.Queue)}
	cores := make([]machine.Core, topo.Cores)
	for i := range cores {
		c, err := newCell(topo.CoreMachine(i), cfg, cl, false)
		if err != nil {
			return nil, fmt.Errorf("service: core %d: %w", i, err)
		}
		c.ex.Core.Hier.AttachLLC(llc.NewView(i))
		// The local run queue stages assigned-but-undispatched work; one
		// slot's worth per worker keeps assignment reactive (work waits
		// in the shared queue, where the balancer can still steer it,
		// rather than behind one core).
		c.q = newQueue(len(c.slots))
		d.cores = append(d.cores, c)
		cores[i] = c
	}
	d.k = machine.NewKernel(llc, topo.Quantum, cores)
	if d.arr, err = newFeed(cfg, cl, mach.Seed); err != nil {
		return nil, err
	}
	return d, nil
}

// runCellMulti serves one cell over cfg.Topology.Cores cores.
func runCellMulti(mach core.Machine, cfg Config, cl Cell) (CellStats, error) {
	d, err := newDispatcher(mach, cfg, cl)
	if err != nil {
		return CellStats{}, err
	}
	defer d.close()
	if err := d.serve(); err != nil {
		return CellStats{}, err
	}
	return d.stats(), nil
}

// pump admits every arrival due at or before the committed barrier into
// the shared admission queue. Arrivals inside the quantum just run wait
// for its barrier — the same one-quantum lag the LLC commit imposes on
// contention — so admission order is a pure function of the arrival
// process, never of core timing.
func (d *dispatcher) pump() {
	_, dropped := d.arr.offer(d.k.Barrier(), &d.shared)
	d.dropped += dropped
}

// assign drains the shared queue into per-core local queues: each
// request goes to the least-loaded core (local queue depth plus
// in-flight requests, as of the committed barrier), lowest index
// winning ties. Assignment stops when every local queue is full — the
// remainder waits in the shared queue where the next barrier's load
// signal can still steer it.
func (d *dispatcher) assign() {
	for !d.shared.empty() {
		best, bestLoad := -1, 0
		for i, c := range d.cores {
			if c.q.n == len(c.q.buf) {
				continue
			}
			load := c.q.n + len(c.fifo)
			if best < 0 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
		if best < 0 {
			return
		}
		req, _ := d.shared.pop()
		c := d.cores[best]
		c.reg.Service.Arrivals++
		c.reg.Service.Admitted++
		c.q.push(req)
	}
}

// step runs one cycle quantum through the kernel, then checks the
// cell-wide fuel budget. The steady-state path performs no allocation.
//
//shsim:cycle-entry
func (d *dispatcher) step() error {
	if _, err := d.k.Step(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	var steps uint64
	for _, c := range d.cores {
		steps += c.loop.Steps()
	}
	if steps > d.cfg.MaxSteps {
		return fmt.Errorf("service: %s at rate %g across %d cores: %w",
			d.cl.Policy, d.cl.Rate, d.topo.Cores, exec.ErrFuelExhausted)
	}
	return nil
}

// drained reports whether the cell is finished: every request
// generated, and no work waiting or in flight anywhere.
func (d *dispatcher) drained() bool {
	if !d.arr.exhausted() || !d.shared.empty() {
		return false
	}
	for _, c := range d.cores {
		if !c.q.empty() || len(c.fifo) > 0 {
			return false
		}
	}
	return true
}

// reconcile checks request conservation at cell end: every generated
// request ended as exactly one of completed, dropped or shed.
func (d *dispatcher) reconcile() error {
	done := d.dropped
	for _, c := range d.cores {
		s := &c.reg.Service
		done += s.Completed + s.Shed
	}
	if done != d.arr.generated {
		return fmt.Errorf("service: conservation violated — %d requests generated, %d accounted for", d.arr.generated, done)
	}
	return nil
}

// serve is the dispatch loop: admit (pump), balance (assign), then one
// quantum (step), until the cell drains. All forward progress of the
// multi-core serving clock flows through here.
//
//shsim:cycle-entry
func (d *dispatcher) serve() error {
	for {
		d.pump()
		d.assign()
		if d.drained() {
			return d.reconcile()
		}
		if err := d.step(); err != nil {
			return err
		}
	}
}

// close shuts the core goroutines down. Idempotent.
func (d *dispatcher) close() { d.k.Close() }

// stats merges the per-core summaries into one CellStats.
func (d *dispatcher) stats() CellStats { return summarize(d.cl, d.cores, d.dropped) }
