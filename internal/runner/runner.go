// Package runner is the parallel execution engine: it fans jobs (an
// experiment, a serve cell or a tool's cell × seed × machine
// configuration, each returning its own result type) out over a
// bounded pool of goroutines and merges the results back in
// deterministic presentation order.
//
// Determinism argument: every job is a pure function of its
// Machine value — scenarios are built from a seeded rand.Source, the
// simulated core and cache hierarchy are private to the job, and no
// package-level state is mutated during a run. Jobs therefore commute,
// and the only ordering the caller can observe is the order in which
// results are delivered. Run and Stream deliver strictly in job-slice
// order regardless of completion order, and a failing sweep stops at
// its lowest-index failure, so the output of a run at -parallel N —
// results and error alike — is byte-identical to -parallel 1.
//
// An optional content-addressed cache (see Cache) short-circuits jobs
// whose (ID, machine, key) cell has been computed before.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Job is one executable cell of a sweep: a computation applied to a
// fully specified machine (the machine embeds the seed), producing a
// result of type R.
type Job[R any] struct {
	// ID names the computation ("E7"). It is both a display label and a
	// cache key component, so custom Run functions must use IDs distinct
	// from the registry's.
	ID string
	// Mach is the machine the job runs on. Each job gets the value by
	// copy, so workers can never share simulator state.
	Mach core.Machine
	// Key is every input Run reads beyond ID and Mach (a many-core
	// topology, a serve cell's configuration), as a JSON-serializable
	// value; nil when there is none. ID, Mach and Key together are the
	// cache key, so two jobs share a cached result exactly when they
	// agree on all three.
	Key any
	// Run produces the result. It is required: a job without one is
	// refused before any job starts.
	Run func(core.Machine) (R, error)
}

// Result is the outcome of one job, tagged with execution metadata.
type Result[R any] struct {
	Job Job[R]
	// Seq is the job's index in the submitted slice: its deterministic
	// presentation position.
	Seq int
	// Res is the job's result; the zero R when Err is set.
	Res R
	// Err is the job's failure, if any.
	Err error
	// Wall is the job's wall-clock duration (zero for cache hits).
	Wall time.Duration
	// CacheHit reports that Res was served from the cache without
	// simulating anything.
	CacheHit bool
}

// Options tunes a Run/Stream call over jobs of result type R.
type Options[R any] struct {
	// Parallelism bounds the worker pool. Values < 1 select
	// runtime.GOMAXPROCS(0). 1 reproduces fully sequential execution.
	Parallelism int
	// Cache, when non-nil, serves and stores every job.
	Cache *Cache
	// Progress, when non-nil, is invoked after every job completes
	// (in completion order, serialized) with the number of finished
	// jobs, the total, and the just-finished result. It runs on the
	// worker that ran the job, under a lock, so it must not block for
	// long: it holds up every worker that finishes meanwhile.
	Progress func(done, total int, r Result[R])
}

func (o Options[R]) workers(jobs int) int {
	n := o.Parallelism
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes all jobs and returns their results indexed exactly like
// the input slice. On an error (see Stream) the results Stream
// emitted before it are still returned; the rest are zero.
func Run[R any](ctx context.Context, jobs []Job[R], opts Options[R]) ([]Result[R], error) {
	out := make([]Result[R], len(jobs))
	err := Stream(ctx, jobs, opts, func(r Result[R]) error {
		out[r.Seq] = r
		return nil
	})
	return out, err
}

// Stream executes all jobs and delivers results to emit strictly in
// job-slice order, each as soon as it and all its predecessors are
// done — so a consumer can render output incrementally while later
// jobs are still executing, and the rendered bytes are independent of
// Parallelism. emit runs on the caller's goroutine. Workers start jobs
// in index order; once a job fails, no job past it starts, every
// earlier job runs to completion and is emitted, and the failure is
// returned naming its job — the lowest-index failure, whatever the
// completion order. A cancelled ctx or a non-nil emit return stops
// the delivery and is returned. Either way Stream returns once the
// jobs in flight have finished. A job without a Run fails the call
// before any job starts.
func Stream[R any](ctx context.Context, jobs []Job[R], opts Options[R], emit func(Result[R]) error) error {
	for i, j := range jobs {
		if j.Run == nil {
			return fmt.Errorf("runner: job %d (%s) has no Run", i, j.ID)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One slot per job, filled once by the worker that runs it.
	slots := make([]chan Result[R], len(jobs))
	for i := range slots {
		slots[i] = make(chan Result[R], 1)
	}
	// next is the next job to start; no job starts at or past limit,
	// which a failed job lowers to just past itself.
	var next, limit atomic.Int64
	limit.Store(int64(len(jobs)))
	var mu sync.Mutex // serializes Progress
	done := 0
	for range opts.workers(len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < limit.Load(); i = next.Add(1) - 1 {
				r := execute(ctx, jobs[i], int(i), opts.Cache)
				for l := limit.Load(); r.Err != nil && i+1 < l; l = limit.Load() {
					if limit.CompareAndSwap(l, i+1) {
						break
					}
				}
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(jobs), r)
					mu.Unlock()
				}
				slots[i] <- r
			}
		}()
	}

	// Every job below the first failed slot has started, so each
	// receive here ends.
	for _, slot := range slots {
		r := <-slot
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Job.ID, r.Err)
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// timedRun invokes one job body and measures its host wall
// time. Wall time here is harness telemetry (the per-job column in
// sweep tables), never an input to simulated state: every simulated
// duration derives from the core clock.
//
//shsim:nondeterministic-ok host wall-time telemetry; never feeds simulated state
func timedRun[R any](run func(core.Machine) (R, error), m core.Machine) (R, time.Duration, error) {
	start := time.Now()
	res, err := run(m)
	return res, time.Since(start), err
}

// execute runs one job, consulting the cache on both sides. This is
// the per-job cell executor — the runner-side cycle-domain entry: the
// experiment body it invokes owns a private simulated machine, so
// nothing nondeterministic may be reachable from here (the wall-clock
// telemetry is outlined and suppressed in timedRun).
//
//shsim:cycle-entry
func execute[R any](ctx context.Context, j Job[R], seq int, cache *Cache) Result[R] {
	r := Result[R]{Job: j, Seq: seq}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	if cache != nil {
		if res, ok := cache.Get(j); ok {
			r.Res, r.CacheHit = res.(R), true
			return r
		}
	}
	res, wall, err := timedRun(j.Run, j.Mach)
	r.Wall = wall
	if err != nil {
		r.Err = err
		return r
	}
	r.Res = res
	if cache != nil {
		// A write failure degrades to a cold cache; the result stands.
		_ = cache.Put(j, res)
	}
	return r
}

// SeedStride separates a sweep's seed repetitions: repetition i runs
// on base.Seed + i*SeedStride, shbench's historical seed schedule.
const SeedStride = 7919

// Jobs expands experiment IDs × seed repetitions (seeds ≥ 1) into the
// job list for a sweep, in presentation order (experiment-major).
// Unknown IDs fail upfront with an *experiments.UnknownIDError.
func Jobs(ids []string, base core.Machine, seeds int) ([]Job[*experiments.Result], error) {
	if seeds < 1 {
		return nil, fmt.Errorf("runner: seeds must be ≥ 1 (got %d)", seeds)
	}
	var jobs []Job[*experiments.Result]
	for _, id := range ids {
		run, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		for i := 0; i < seeds; i++ {
			m := base
			m.Seed = base.Seed + int64(i)*SeedStride
			jobs = append(jobs, Job[*experiments.Result]{ID: id, Mach: m, Run: run})
		}
	}
	return jobs, nil
}
