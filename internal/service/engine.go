package service

import (
	"errors"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// slot is one worker: a bounded execution context re-armed for request
// after request, so a million-request run needs only Workers contexts.
// A free slot's context is halted — parked until the next arm — which
// is what takes it off the scheduling loops' ring.
type slot struct {
	task  *exec.Task
	stack uint64 // this slot's private stack top

	id       uint64 // request id (selects the instance)
	arrival  uint64 // cycle the request arrived (sojourn base)
	expected uint64 // host-reference result for validation
}

// batchTask is one background task: re-armed with the next instance at
// every halt, so batch work never runs out.
type batchTask struct {
	task  *exec.Task
	stack uint64
	inst  int // instance currently armed
}

// cell is one (policy, rate) point of the sweep: a pure single-threaded
// simulation over its own harness, executor and request ledger. It is
// the open-loop source (exec.AsymSource) of its policy's scheduling
// loop: an arrival-fed pool of worker slots plus batch tasks that never
// run out. In a multi-core cell each core owns one of these (built from
// its strided per-core machine, arrivals owned by the dispatcher
// instead), and the kernel runs it one quantum at a time.
type cell struct {
	cfg  Config
	pol  Policy
	rate float64

	ex   *exec.Executor
	loop exec.Loop // exec.Flat, exec.Asym or exec.SMT, as the policy selects

	// led is the cell's request ledger, kept whether or not anything
	// observes the cell: the sojourn histogram IS the output. summarize
	// folds it into an observing registry at cell end.
	led metrics.Service

	part   *workloads.Part // request part
	entry  int             // request entry in the (possibly rewritten) image
	bpart  *workloads.Part // background part (nil without batch work)
	bentry int

	// arr is the cell-owned arrival stream. nil marks a dispatched
	// (multi-core) cell: requests appear in q at quantum barriers via
	// the dispatcher instead of being admitted inline, and the loop runs
	// against a quantum deadline rather than to drain.
	arr *feed

	// The loop's ring is the worker slots followed by the batch tasks;
	// a ring index names either.
	q       queue
	slots   []*slot
	fifo    []int // in-flight slots in arrival order; fifo[0] is the oldest
	batch   []*batchTask
	bnext   int // next background instance to arm
	scavIdx int // batch rotation cursor (asymmetric policies)
}

// RunCell serves one sweep cell: cfg.Requests requests offered at
// cell.Rate under cell.Policy. It is a pure function of its arguments —
// sweeps may run cells concurrently (each builds its own scenario,
// core and ledger) and merge results in grid order. With
// cfg.Topology.Cores > 1 the cell spreads over a many-core machine:
// one arrival stream, per-core policy engines, deterministic quantum
// dispatch (see dispatch.go).
func RunCell(mach core.Machine, cfg Config, cl Cell) (CellStats, error) {
	return RunCellObserved(mach, cfg, cl, nil, nil)
}

// RunCellObserved is RunCell with every core of the cell observing
// through tr and reg, as a machine's cores do: events carry their core
// index, and at cell end the cell adds its ledger to reg.Service and
// its cores' counters to reg.Mem, reg.CPU and reg.Exec. Observation
// never changes the CellStats. Cells sharing tr or reg must run one at
// a time.
func RunCellObserved(mach core.Machine, cfg Config, cl Cell, tr trace.Tracer, reg *metrics.Registry) (CellStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return CellStats{}, err
	}
	obs := exec.Config{Tracer: tr, Metrics: reg}
	if cfg.Topology.Cores > 1 {
		d, err := newDispatcher(mach, cfg, cl, obs)
		if err != nil {
			return CellStats{}, err
		}
		if err := d.serve(); err != nil {
			return CellStats{}, err
		}
		return d.stats(), nil
	}
	c, err := newCell(mach, cfg, cl, obs, true)
	if err != nil {
		return CellStats{}, err
	}
	if err := c.run(exec.NoDeadline); err != nil {
		return CellStats{}, err
	}
	return summarize(cl, []*cell{c}, 0), nil
}

// run advances the cell's scheduling loop until the cell drains
// (self-clocked cells) or the cycle deadline passes (quantum-sliced
// multi-core cells).
func (c *cell) run(deadline uint64) error {
	_, err := c.loop.Run(deadline)
	if errors.Is(err, exec.ErrFuelExhausted) {
		err = fmt.Errorf("service: %s at rate %g: %w", c.pol, c.rate, err)
	}
	return err
}

// newCell builds one serving cell over mach, its executor observing
// through obs's Tracer and Metrics. withArrivals selects the classic
// self-clocked form; a dispatched (multi-core) cell leaves arr nil —
// its local queue is fed by the dispatcher at quantum barriers.
func newCell(mach core.Machine, cfg Config, cl Cell, obs exec.Config, withArrivals bool) (*cell, error) {
	workers := cfg.Workers
	if cl.Policy == Sidecar {
		workers = 1 // the dedicated lane serves strictly one at a time
	}
	specs := []workloads.Spec{cfg.Workload.Request}
	withBatch := cfg.Batch > 0 && cfg.Workload.Background != nil
	if withBatch {
		specs = append(specs, cfg.Workload.Background)
	}
	h, err := core.NewHarness(mach, specs...)
	if err != nil {
		return nil, err
	}
	reqName := cfg.Workload.Request.Name()

	// SMT is hardware-only and runs the uninstrumented binary; every
	// software policy serves the same instrumented image (profile the
	// request part, then insert primary prefetch+yield pairs and
	// scavenger conditional yields), so policies differ only in
	// scheduling, never in code.
	var img *core.Image
	if cl.Policy == SMT {
		img = h.Baseline()
	} else {
		prof, _, err := h.Profile(reqName)
		if err != nil {
			return nil, err
		}
		img, err = h.Instrument(prof, mach.PipelineOptions())
		if err != nil {
			return nil, err
		}
	}

	c := &cell{
		cfg:   cfg,
		pol:   cl.Policy,
		rate:  cl.Rate,
		part:  h.Sc.Part(reqName),
		entry: img.Entries[reqName],
		q:     newQueue(cfg.Queue),
	}
	execCfg := exec.Config{Switch: mach.Switch, MaxSteps: cfg.MaxSteps, Tracer: obs.Tracer, Metrics: obs.Metrics}
	if cl.Policy == OSThread {
		execCfg.Switch = baselines.OSThreadCostModel()
	}
	c.ex = h.NewExecutor(img, execCfg)
	if len(c.part.Instances) < workers {
		return nil, fmt.Errorf("service: request workload %q provides %d instances for %d workers (each concurrent slot needs its own stack)",
			reqName, len(c.part.Instances), workers)
	}
	for i := 0; i < workers; i++ {
		ctx := coro.NewContext(i, c.entry, c.part.StackTops[i])
		ctx.Name = fmt.Sprintf("worker[%d]", i)
		ctx.Halted = true // parked until armed
		c.slots = append(c.slots, &slot{task: exec.NewTask(ctx, coro.Primary), stack: c.part.StackTops[i]})
	}
	if withBatch {
		bname := cfg.Workload.Background.Name()
		c.bpart = h.Sc.Part(bname)
		c.bentry = img.Entries[bname]
		if len(c.bpart.Instances) < cfg.Batch {
			return nil, fmt.Errorf("service: background workload %q provides %d instances for %d batch tasks",
				bname, len(c.bpart.Instances), cfg.Batch)
		}
		for k := 0; k < cfg.Batch; k++ {
			ctx := coro.NewContext(workers+k, c.bentry, c.bpart.StackTops[k])
			ctx.Name = fmt.Sprintf("batch[%d]", k)
			b := &batchTask{task: exec.NewTask(ctx, coro.Scavenger), stack: c.bpart.StackTops[k]}
			c.armBatch(b)
			c.batch = append(c.batch, b)
		}
	}
	ring := make([]*exec.Task, 0, len(c.slots)+len(c.batch))
	for _, s := range c.slots {
		ring = append(ring, s.task)
	}
	for _, b := range c.batch {
		ring = append(ring, b.task)
	}
	switch cl.Policy {
	case Agnostic, OSThread:
		// One flat ring over in-flight requests and batch work, blind to
		// request class; OSThread differs only in the switch price.
		c.loop = c.ex.NewFlat(ring, c)
	case Sidecar, EventAware:
		// The oldest in-flight request is the primary; younger ones
		// (EventAware only — Sidecar's single lane never has any), then
		// batch tasks, fill its miss shadows and the idle lane.
		c.loop = c.ex.NewAsym(ring, c)
	case SMT:
		// Slots and batch contexts multiplex the core as hardware threads
		// with zero software cost and zero notion of request priority
		// (the paper's §1 critique).
		c.loop = c.ex.NewSMT(ring, exec.SMTSlice, c)
	default:
		return nil, fmt.Errorf("service: unknown policy %d", uint8(cl.Policy))
	}

	if withArrivals {
		if c.arr, err = newFeed(cfg, cl, mach.Seed); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Pending reports whether the loop has more to do. A self-clocked cell
// drains its own request budget: every request ends as exactly one of
// completed, dropped or shed. A dispatched cell runs until its quantum
// deadline — the dispatcher, not the core, decides when the cell as a
// whole is drained.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Pending() bool {
	if c.arr == nil {
		return true
	}
	s := &c.led
	return s.Completed+s.Dropped+s.Shed < uint64(c.cfg.Requests)
}

// Poll admits every arrival due at or before the current cycle and
// fills free slots from the queue. What it returns — the next arrival,
// if one is still to come — is strictly in the future, so the loops
// re-enter here at each arrival. Dispatched cells have no arrival
// process: their queue is fed at quantum barriers (RunQuantum
// dispatches what the barrier delivered).
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Poll() uint64 {
	horizon := uint64(exec.NoHorizon)
	if a := c.arr; a != nil && !a.exhausted() {
		if a.next <= c.ex.Core.Now {
			arrived, dropped := a.offer(c.ex.Core.Now, &c.q)
			c.led.Arrivals += arrived
			c.led.Admitted += arrived - dropped
			c.led.Dropped += dropped
		}
		if !a.exhausted() {
			horizon = a.next
		}
	}
	if !c.q.empty() {
		c.fill()
	}
	return horizon
}

// fill dispatches queued requests into free slots, shedding stale ones.
// Dispatch order is arrival order (the queue is FIFO), so fifo stays
// sorted by arrival.
func (c *cell) fill() {
	for _, s := range c.slots {
		if s.task.Ctx.Halted {
			c.dispatch(s)
		}
	}
}

// arm points s at req: restore the instance's initial registers on the
// slot's private stack and clear all per-run context state. Accounting
// counters survive — they aggregate across requests.
func (c *cell) arm(s *slot, req request) {
	inst := &c.part.Instances[int(req.id%uint64(len(c.part.Instances)))]
	rearm(s.task, inst, s.stack, c.entry)
	s.id = req.id
	s.arrival = req.arrival
	s.expected = inst.Expected
}

// armBatch re-arms b with the next background instance.
func (c *cell) armBatch(b *batchTask) {
	b.inst = c.bnext % len(c.bpart.Instances)
	c.bnext++
	rearm(b.task, &c.bpart.Instances[b.inst], b.stack, c.bentry)
}

// rearm points t at a fresh run of inst from entry on its private
// stack, clearing all per-run context state.
func rearm(t *exec.Task, inst *workloads.Instance, stack uint64, entry int) {
	ctx := t.Ctx
	ctx.Regs = inst.Regs
	ctx.Regs[isa.SP] = stack
	ctx.PC = entry
	ctx.Flags = 0
	ctx.Halted = false
	ctx.Result = 0
	ctx.LastPrefetchValid = false
	ctx.AccelPending = false
	t.Reset()
}

// dispatch pops the next serviceable request, if any, into s.
func (c *cell) dispatch(s *slot) {
	now := c.ex.Core.Now
	for {
		req, ok := c.q.pop()
		if !ok {
			return
		}
		if c.cfg.ShedAfter > 0 && now-req.arrival > c.cfg.ShedAfter {
			c.led.Shed++
			continue
		}
		c.arm(s, req)
		c.fifo = append(c.fifo, s.task.Ctx.ID)
		return
	}
}

// complete validates and retires the request in s, recording its
// sojourn (arrival → halt).
func (c *cell) complete(s *slot) error {
	ctx := s.task.Ctx
	if ctx.Result != s.expected {
		return fmt.Errorf("service: request %d computed %d, reference says %d", s.id, ctx.Result, s.expected)
	}
	c.led.Completed++
	c.led.Sojourn.Observe(c.ex.Core.Now - s.arrival)
	for i, id := range c.fifo {
		if id == ctx.ID {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
	return nil
}

// completeBatch validates the finished batch op and re-arms the task.
func (c *cell) completeBatch(b *batchTask) error {
	if got, want := b.task.Ctx.Result, c.bpart.Instances[b.inst].Expected; got != want {
		return fmt.Errorf("service: batch instance %d computed %d, reference says %d", b.inst, got, want)
	}
	c.led.BatchOps++
	c.armBatch(b)
	return nil
}

// OnHalt retires ring entity i after its context halted: a worker slot
// completes its request and parks, a batch task re-arms. Every halt is
// a scheduling boundary — the flat ring rotates on, a scavenger whose
// episode has run its course hands back.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) OnHalt(i int) (bool, error) {
	if i < len(c.slots) {
		return true, c.complete(c.slots[i])
	}
	return true, c.completeBatch(c.batch[i-len(c.slots)])
}

// Primary returns the ring entity of the oldest in-flight request,
// or -1.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Primary() int {
	if len(c.fifo) == 0 {
		return -1
	}
	return c.fifo[0]
}

// NextScavenger picks the next shadow-filler: younger in-flight
// requests in arrival order, then batch tasks in rotation.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) NextScavenger(exclude int) int {
	if len(c.fifo) > 1 {
		for _, id := range c.fifo[1:] {
			if id != exclude {
				return id
			}
		}
	}
	for off := 0; off < len(c.batch); off++ {
		k := (c.scavIdx + off) % len(c.batch)
		e := len(c.slots) + k
		if e != exclude {
			c.scavIdx = (k + 1) % len(c.batch)
			return e
		}
	}
	return -1
}

// IdleFill picks the batch task that fills the lane between requests.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) IdleFill() int {
	if len(c.batch) == 0 {
		return -1
	}
	i := len(c.slots) + c.scavIdx%len(c.batch)
	c.scavIdx++
	return i
}
