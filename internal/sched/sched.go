// Package sched implements the paper's §4.2 "runtime scheduling"
// discussion: how the event-hiding mechanism integrates with a coroutine
// scheduler that owns a stream of latency-sensitive requests plus batch
// work.
//
// Three integration policies are provided:
//
//   - Agnostic: the scheduler knows nothing about short events. Every
//     yield is an ordinary reschedule point and all tasks share a
//     round-robin queue — requests queue behind batch work.
//   - Sidecar: the paper's first approach. The scheduler runs requests
//     strictly in FIFO order and merely exposes its ready queue of batch
//     tasks; the event-hiding executor borrows those tasks to fill each
//     request's miss shadows (dual-mode per request).
//   - EventAware: the paper's second approach. The scheduler itself
//     treats a primary yield like a blocking I/O event: pending requests
//     are co-scheduled into each other's miss shadows ahead of batch
//     work, improving request throughput when several are queued.
package sched

import (
	"fmt"

	"repro/internal/exec"
)

// Policy selects the integration approach.
type Policy uint8

// Integration policies (see package comment).
const (
	Agnostic Policy = iota
	Sidecar
	EventAware
)

func (p Policy) String() string {
	switch p {
	case Agnostic:
		return "agnostic"
	case Sidecar:
		return "sidecar"
	case EventAware:
		return "event-aware"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Class separates latency-sensitive requests from batch work.
type Class uint8

// Task classes.
const (
	Request Class = iota
	Batch
)

// Stats summarizes a scheduler run.
type Stats struct {
	// RequestLatencies[i] is the wall time from run start to completion
	// of the i-th submitted request.
	RequestLatencies []uint64
	// Cycles is the wall duration until all requests completed (batch
	// tasks may still be unfinished).
	Cycles uint64
	// Busy aggregates busy cycles over all tasks.
	Busy uint64
	// Switches counts context switches.
	Switches uint64
}

// Efficiency returns busy cycles over wall cycles.
func (s Stats) Efficiency() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Cycles)
}

// MeanRequestLatency returns the mean over completed requests.
func (s Stats) MeanRequestLatency() float64 {
	if len(s.RequestLatencies) == 0 {
		return 0
	}
	var sum uint64
	for _, l := range s.RequestLatencies {
		sum += l
	}
	return float64(sum) / float64(len(s.RequestLatencies))
}

// Scheduler owns a queue of classified tasks over one executor.
type Scheduler struct {
	ex       *exec.Executor
	policy   Policy
	requests []*exec.Task
	batch    []*exec.Task
}

// New creates a scheduler with the given integration policy.
func New(ex *exec.Executor, policy Policy) *Scheduler {
	return &Scheduler{ex: ex, policy: policy}
}

// Submit queues a task.
func (s *Scheduler) Submit(t *exec.Task, class Class) {
	if class == Request {
		s.requests = append(s.requests, t)
	} else {
		s.batch = append(s.batch, t)
	}
}

// Run executes until every request has completed and returns per-request
// latencies. Batch tasks run only as far as the policy lets them.
func (s *Scheduler) Run() (Stats, error) {
	if len(s.requests) == 0 {
		return Stats{}, fmt.Errorf("sched: no requests submitted")
	}
	start := s.ex.Core.Now
	st := Stats{RequestLatencies: make([]uint64, len(s.requests))}

	record := func() {
		for i, r := range s.requests {
			if r.Ctx.Halted && st.RequestLatencies[i] == 0 {
				st.RequestLatencies[i] = s.ex.Core.Now - start
			}
		}
	}

	switch s.policy {
	case Agnostic:
		// One flat round-robin queue; yields rotate blindly. To observe
		// request completions we run the symmetric loop request by
		// request: RunSymmetric already records per-task halt times.
		all := append(append([]*exec.Task{}, s.requests...), s.batch...)
		runStats, err := s.ex.RunSymmetric(all)
		if err != nil {
			return Stats{}, err
		}
		for i := range s.requests {
			st.RequestLatencies[i] = runStats.Latencies[i]
		}

	case Sidecar, EventAware:
		// Requests strictly FIFO, each the primary of one dual-mode run
		// whose scavengers come from the exposed batch ready-queue —
		// and, under EventAware, from the requests still pending behind
		// it, co-scheduled into its miss shadows ahead of batch work (so
		// a later request may already be done when its turn comes).
		for i, req := range s.requests {
			if !req.Ctx.Halted {
				var pool []*exec.Task
				if s.policy == EventAware {
					pool = s.ready(s.requests[i+1:])
				}
				pool = append(pool, s.ready(s.batch)...)
				if _, err := s.ex.RunDualMode(req, pool); err != nil {
					return Stats{}, err
				}
			}
			record()
		}

	default:
		return Stats{}, fmt.Errorf("sched: unknown policy %v", s.policy)
	}

	record()
	st.Cycles = s.ex.Core.Now - start
	for _, t := range append(append([]*exec.Task{}, s.requests...), s.batch...) {
		st.Busy += t.Ctx.BusyCycles
		st.Switches += t.Ctx.Switches
	}
	if m := s.ex.Cfg.Metrics; m != nil {
		m.Sched.Requests += uint64(len(s.requests))
		m.Sched.BatchTasks += uint64(len(s.batch))
		for _, l := range st.RequestLatencies {
			m.Sched.RequestLatency.Observe(l)
		}
	}
	return st, nil
}

// ready filters out completed tasks — the scheduler's exposed ready queue.
func (s *Scheduler) ready(tasks []*exec.Task) []*exec.Task {
	var out []*exec.Task
	for _, t := range tasks {
		if !t.Ctx.Halted {
			out = append(out, t)
		}
	}
	return out
}
