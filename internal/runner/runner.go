// Package runner is the parallel experiment execution engine: it fans
// jobs (experiment × seed × machine configuration) out over a bounded
// pool of goroutines and merges the results back in deterministic
// presentation order.
//
// Determinism argument: every experiment is a pure function of its
// Machine value — scenarios are built from a seeded rand.Source, the
// simulated core and cache hierarchy are private to the job, and no
// package-level state is mutated during a run. Jobs therefore commute,
// and the only ordering the caller can observe is the order in which
// results are delivered. Run and Stream deliver strictly in job-slice
// order regardless of completion order, so the output of a run at
// -parallel N is byte-identical to -parallel 1.
//
// An optional content-addressed cache (see Cache) short-circuits jobs
// whose (ID, machine, key) cell has been computed before.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Job is one executable cell of a sweep: a computation applied to a
// fully specified machine (the machine embeds the seed).
type Job struct {
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
	Run experiments.Runner
}

// Result is the outcome of one job, tagged with execution metadata.
type Result struct {
	Job Job
	// Seq is the job's index in the submitted slice: its deterministic
	// presentation position.
	Seq int
	// Res is the experiment result; nil when Err is set.
	Res *experiments.Result
	// Err is the job's failure, if any.
	Err error
	// Wall is the job's wall-clock duration (zero for cache hits).
	Wall time.Duration
	// CacheHit reports that Res was served from the cache without
	// simulating anything.
	CacheHit bool
}

// Options tunes a Run/Stream call.
type Options struct {
	// Parallelism bounds the worker pool. Values < 1 select
	// runtime.GOMAXPROCS(0). 1 reproduces fully sequential execution.
	Parallelism int
	// Cache, when non-nil, serves and stores every job.
	Cache *Cache
	// Progress, when non-nil, is invoked after every job completes
	// (in completion order, serialized) with the number of finished
	// jobs, the total, and the just-finished result. It must not block
	// for long: it holds up result delivery.
	Progress func(done, total int, r Result)
}

func (o Options) workers(jobs int) int {
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
// the input slice. The first job error cancels the sweep; results
// computed before cancellation are still returned.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Result, error) {
	out := make([]Result, len(jobs))
	err := Stream(ctx, jobs, opts, func(r Result) error {
		out[r.Seq] = r
		return nil
	})
	return out, err
}

// Stream executes all jobs and delivers results to emit strictly in
// job-slice order, each as soon as it and all its predecessors are
// done — so a consumer can render output incrementally while later
// jobs are still executing, and the rendered bytes are independent of
// Parallelism. emit runs on the caller's goroutine. A job error or a
// non-nil emit return cancels outstanding work and is returned after
// in-flight jobs drain. A job without a Run fails the call before any
// job starts.
func Stream(ctx context.Context, jobs []Job, opts Options, emit func(Result) error) error {
	for i, j := range jobs {
		if j.Run == nil {
			return fmt.Errorf("runner: job %d (%s) has no Run", i, j.ID)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	results := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := execute(ctx, jobs[i], i, opts.Cache)
				select {
				case results <- r:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(idx)
		for i := range jobs {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder completion order into submission order, emitting each
	// result the moment its turn comes up.
	pending := make(map[int]Result)
	next, done := 0, 0
	var firstErr error
	for r := range results {
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), r)
		}
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", r.Job.ID, r.Err)
			cancel()
		}
		pending[r.Seq] = r
		for {
			nr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr == nil {
				if err := emit(nr); err != nil {
					firstErr = err
					cancel()
				}
			}
		}
		if done == len(jobs) {
			break
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// timedRun invokes one experiment body and measures its host wall
// time. Wall time here is harness telemetry (the per-job column in
// sweep tables), never an input to simulated state: every simulated
// duration derives from the core clock.
//
//shsim:nondeterministic-ok host wall-time telemetry; never feeds simulated state
func timedRun(run experiments.Runner, m core.Machine) (*experiments.Result, time.Duration, error) {
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
func execute(ctx context.Context, j Job, seq int, cache *Cache) Result {
	r := Result{Job: j, Seq: seq}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	if cache != nil {
		if res, ok := cache.Get(j); ok {
			r.Res, r.CacheHit = res, true
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
func Jobs(ids []string, base core.Machine, seeds int) ([]Job, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("runner: seeds must be ≥ 1 (got %d)", seeds)
	}
	var jobs []Job
	for _, id := range ids {
		run, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		for i := 0; i < seeds; i++ {
			m := base
			m.Seed = base.Seed + int64(i)*SeedStride
			jobs = append(jobs, Job{ID: id, Mach: m, Run: run})
		}
	}
	return jobs, nil
}
