package exec

import (
	"fmt"

	"repro/internal/coro"
)

// Ticker is the one closed-loop run: a scheduling loop — Flat for the
// solo and symmetric disciplines, SMT for hardware threads — over a
// fixed task set. RunSolo, RunSymmetric and RunSMT run it to
// completion; the cycle-quantum kernel (internal/machine) steps it.
type Ticker struct {
	Loop
	ring []*Task
	set  *FixedSet
}

// NewTicker prepares a resumable flat run of the tasks to completion.
// solo is the uninstrumented-baseline discipline: exactly one task,
// borrowed as it is (no mode forcing) and already holding the CPU (no
// resume event); with nobody to rotate to, its yields retire as no-ops.
// Otherwise all tasks enter primary mode and per-task halt times are
// recorded.
func (e *Executor) NewTicker(tasks []*Task, solo bool) (*Ticker, error) {
	if solo && len(tasks) > 1 {
		return nil, fmt.Errorf("exec: solo ticker takes exactly one task, got %d", len(tasks))
	}
	t, err := e.newTicker(tasks, !solo)
	if err != nil {
		return nil, err
	}
	l := e.NewFlat(tasks, t.set)
	if solo {
		l.cur = 0
	} else {
		forceMode(coro.Primary, tasks...)
	}
	t.Loop = l
	return t, nil
}

// NewSMTTicker prepares a resumable run of the tasks to completion as
// hardware threads rotating every quantum busy cycles, per-task halt
// times recorded. Modes are left as they are: the hardware sees none.
func (e *Executor) NewSMTTicker(tasks []*Task, quantum uint64) (*Ticker, error) {
	if quantum == 0 {
		return nil, fmt.Errorf("exec: SMT quantum must be positive")
	}
	t, err := e.newTicker(tasks, true)
	if err != nil {
		return nil, err
	}
	t.Loop = e.NewSMT(tasks, quantum, t.set)
	return t, nil
}

// newTicker prepares the fixed set of a closed run of tasks, recording
// halt times when latencies is set; the caller supplies the loop.
func (e *Executor) newTicker(tasks []*Task, latencies bool) (*Ticker, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("exec: no tasks")
	}
	running := 0
	for _, tk := range tasks {
		if !tk.Ctx.Halted {
			running++
		}
	}
	var lat []uint64
	if latencies {
		lat = make([]uint64, len(tasks))
	}
	return &Ticker{ring: tasks, set: NewFixedSet(e.Core, running, lat)}, nil
}

// Stats assembles the run statistics; complete once Run reported done.
func (t *Ticker) Stats() Stats {
	st := Stats{Cycles: t.set.core.Now - t.set.Start, Latencies: t.set.Latencies}
	collect(&st, t.ring...)
	if l, ok := t.Loop.(*SMT); ok {
		st.Stall = l.idle
	}
	return st
}

// runClosed runs a closed run to completion.
func runClosed(t *Ticker, err error) (Stats, error) {
	if err != nil {
		return Stats{}, err
	}
	if _, err := t.Run(NoDeadline); err != nil {
		return Stats{}, err
	}
	return t.Stats(), nil
}

// RunSolo executes a single task to completion. Yields retire but never
// switch (there is nobody to switch to) — this measures both the baseline
// and the pure overhead of instrumentation on an otherwise idle runtime.
//
//shsim:cycle-entry
func (e *Executor) RunSolo(t *Task) (Stats, error) {
	return runClosed(e.NewTicker([]*Task{t}, true))
}

// RunSymmetric interleaves equal-priority tasks: every primary-phase yield
// rotates to the next runnable task. This is the batch/throughput
// discipline of CoroBase-style systems.
//
//shsim:cycle-entry
func (e *Executor) RunSymmetric(tasks []*Task) (Stats, error) {
	return runClosed(e.NewTicker(tasks, false))
}

// RunSMT multiplexes the tasks as hardware threads (the SMT loop) until
// all halt, rotating every quantum busy cycles.
//
//shsim:cycle-entry
func (e *Executor) RunSMT(tasks []*Task, quantum uint64) (Stats, error) {
	return runClosed(e.NewSMTTicker(tasks, quantum))
}
