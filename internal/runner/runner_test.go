package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// expJob and expResult are an experiment sweep's job and result.
type (
	expJob    = Job[*experiments.Result]
	expResult = Result[*experiments.Result]
)

// render produces the caller-visible bytes of a sweep: tables, notes and
// metrics in presentation order — exactly what shbench prints.
func render(results []expResult) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Res.String())
		b.WriteString(r.Res.MetricsString())
	}
	return b.String()
}

func sweep(t *testing.T, parallelism int, cache *Cache) []expResult {
	t.Helper()
	jobs, err := Jobs([]string{"E1", "E12", "E13"}, core.DefaultMachine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 9 {
		t.Fatalf("expanded %d jobs, want 9", len(jobs))
	}
	results, err := Run(context.Background(), jobs, Options[*experiments.Result]{Parallelism: parallelism, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// The tentpole property: a 3-experiment × 3-seed sweep renders
// byte-identically at -parallel 1 and -parallel 8.
func TestParallelSweepIsDeterministic(t *testing.T) {
	seq := render(sweep(t, 1, nil))
	par := render(sweep(t, 8, nil))
	if seq != par {
		t.Errorf("parallel sweep diverged from sequential:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "### E1") || !strings.Contains(seq, "### E13") {
		t.Errorf("sweep output incomplete:\n%s", seq)
	}
}

// A warm cache must satisfy the entire second sweep without simulating
// anything: every job a hit, zero Run invocations, identical bytes.
func TestWarmCacheSkipsSimulation(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := sweep(t, 4, cache)
	for _, r := range cold {
		if r.CacheHit {
			t.Fatalf("%s hit a cache that should be cold", r.Job.ID)
		}
	}

	// Re-expand the jobs but count actual simulator entries.
	var simulated atomic.Int64
	jobs, err := Jobs([]string{"E1", "E12", "E13"}, core.DefaultMachine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		inner := jobs[i].Run
		jobs[i].Run = func(m core.Machine) (*experiments.Result, error) {
			simulated.Add(1)
			return inner(m)
		}
	}
	warm, err := Run(context.Background(), jobs, Options[*experiments.Result]{Parallelism: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("warm sweep re-simulated %d jobs, want 0", n)
	}
	for _, r := range warm {
		if !r.CacheHit {
			t.Errorf("%s (seed %d) missed a warm cache", r.Job.ID, r.Job.Mach.Seed)
		}
	}
	if render(cold) != render(warm) {
		t.Error("cached results render differently from computed ones")
	}
	if cache.Hits() != 9 {
		t.Errorf("cache hits = %d, want 9", cache.Hits())
	}
}

// Different machines and different experiments must never collide.
func TestCacheKeySeparatesCells(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultMachine()
	k1, err := cache.Key(expJob{ID: "E1", Mach: base})
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Seed++
	k2, _ := cache.Key(expJob{ID: "E1", Mach: other})
	k3, _ := cache.Key(expJob{ID: "E2", Mach: base})
	shrunk := base
	shrunk.Mem.L1Size /= 2
	k4, _ := cache.Key(expJob{ID: "E1", Mach: shrunk})
	seen := map[string]bool{k1: true, k2: true, k3: true, k4: true}
	if len(seen) != 4 {
		t.Errorf("cache keys collide: %v %v %v %v", k1, k2, k3, k4)
	}
	// Same cell, same key.
	again, _ := cache.Key(expJob{ID: "E1", Mach: core.DefaultMachine()})
	if again != k1 {
		t.Error("identical jobs produced different keys")
	}
}

// Stream must deliver results in submission order even when completion
// order is scrambled, and progress must count every job.
func TestStreamOrderAndProgress(t *testing.T) {
	var jobs []expJob
	for i := 0; i < 16; i++ {
		i := i
		jobs = append(jobs, expJob{ID: fmt.Sprintf("J%02d", i), Mach: core.Machine{Seed: int64(i)},
			Run: func(core.Machine) (*experiments.Result, error) {
				return &experiments.Result{ID: fmt.Sprintf("J%02d", i)}, nil
			}})
	}
	var order []int
	var progressed atomic.Int64
	err := Stream(context.Background(), jobs, Options[*experiments.Result]{
		Parallelism: 8,
		Progress:    func(done, total int, r expResult) { progressed.Add(1) },
	}, func(r expResult) error {
		order = append(order, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range order {
		if i != seq {
			t.Fatalf("emission order broken at %d: %v", i, order)
		}
	}
	if len(order) != 16 || progressed.Load() != 16 {
		t.Errorf("emitted %d, progressed %d, want 16/16", len(order), progressed.Load())
	}
}

func TestJobErrorCancelsSweep(t *testing.T) {
	boom := errors.New("boom")
	var jobs []expJob
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, expJob{ID: fmt.Sprintf("J%d", i), Run: func(core.Machine) (*experiments.Result, error) {
			if i == 3 {
				return nil, boom
			}
			return &experiments.Result{}, nil
		}})
	}
	_, err := Run(context.Background(), jobs, Options[*experiments.Result]{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
	if err == nil || !strings.Contains(err.Error(), "J3") {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

// A failing sweep has one outcome at every parallelism: J2 fails late
// and J5 at once, yet every trial emits J0 and J1, returns J2's error
// and starts no job past J2 once J2's failure is reported (at
// Parallelism 1, none at all).
func TestStreamFailureIsDeterministic(t *testing.T) {
	errJ2, errJ5 := errors.New("J2 failed"), errors.New("J5 failed")
	for _, par := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 50; trial++ {
			var failed atomic.Bool
			var started, late atomic.Int64
			var jobs []expJob
			for i := 0; i < 8; i++ {
				jobs = append(jobs, expJob{ID: fmt.Sprintf("J%d", i), Run: func(core.Machine) (*experiments.Result, error) {
					started.Add(1)
					if i > 2 && failed.Load() {
						late.Add(1)
					}
					switch i {
					case 2:
						time.Sleep(time.Millisecond)
						return nil, errJ2
					case 5:
						return nil, errJ5
					}
					return &experiments.Result{}, nil
				}})
			}
			var emitted []string
			err := Stream(context.Background(), jobs, Options[*experiments.Result]{
				Parallelism: par,
				Progress: func(_, _ int, r expResult) {
					if r.Job.ID == "J2" {
						failed.Store(true)
					}
				},
			}, func(r expResult) error {
				emitted = append(emitted, r.Job.ID)
				return nil
			})
			if !errors.Is(err, errJ2) || !strings.Contains(err.Error(), "J2") {
				t.Fatalf("parallelism %d, trial %d: err = %v, want J2's error naming J2", par, trial, err)
			}
			if strings.Join(emitted, ",") != "J0,J1" {
				t.Fatalf("parallelism %d, trial %d: emitted %v, want [J0 J1]", par, trial, emitted)
			}
			if late.Load() != 0 || (par == 1 && started.Load() != 3) {
				t.Fatalf("parallelism %d, trial %d: %d job(s) past J2 started after it failed, %d started in all",
					par, trial, late.Load(), started.Load())
			}
		}
	}
}

func TestJobsRejectsUnknownIDs(t *testing.T) {
	_, err := Jobs([]string{"E1", "Z9"}, core.DefaultMachine(), 1)
	var unknown *experiments.UnknownIDError
	if !errors.As(err, &unknown) || unknown.ID != "Z9" {
		t.Fatalf("err = %v, want UnknownIDError for Z9", err)
	}
	if !strings.Contains(err.Error(), "E20") {
		t.Errorf("error should list valid IDs: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs, err := Jobs([]string{"E1"}, core.DefaultMachine(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, jobs, Options[*experiments.Result]{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// Cancelling a Stream after its first emitted result drains the jobs in
// flight, starts none after the cancel, emits nothing more, returns
// context.Canceled and leaves no goroutine behind. Job 0 returns once
// jobs 1–3 are running; the emit of its result waits for job 4, which
// takes job 0's worker, and every job but 0 blocks until the cancel has
// happened. So all four workers are busy when it happens, and exactly
// five jobs start.
func TestStreamCancelLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, finished, late atomic.Int64
	// in has a slot per job: each job but 0 sends once as it starts.
	in, gate := make(chan struct{}, 16), make(chan struct{})
	var jobs []expJob
	for i := 0; i < 16; i++ {
		jobs = append(jobs, expJob{ID: fmt.Sprintf("J%02d", i), Run: func(core.Machine) (*experiments.Result, error) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			started.Add(1)
			defer finished.Add(1)
			if i == 0 {
				<-in
				<-in
				<-in
			} else {
				in <- struct{}{}
				<-gate
			}
			return &experiments.Result{ID: fmt.Sprintf("J%02d", i)}, nil
		}})
	}
	emitted := 0
	err := Stream(ctx, jobs, Options[*experiments.Result]{Parallelism: 4}, func(expResult) error {
		if emitted++; emitted == 1 {
			<-in
			cancel()
			close(gate)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || emitted != 1 {
		t.Errorf("err = %v after %d emit(s), want context.Canceled after 1", err, emitted)
	}
	if s, f := started.Load(), finished.Load(); s != 5 || f != s || late.Load() != 0 {
		t.Errorf("started %d, finished %d, started after the cancel %d; want 5, 5, 0", s, f, late.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stream returned, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// A job without a Run fails the whole call before any job starts.
func TestJobWithoutRunIsRefused(t *testing.T) {
	var ran atomic.Int64
	jobs := []expJob{
		{ID: "ok", Run: func(core.Machine) (*experiments.Result, error) {
			ran.Add(1)
			return &experiments.Result{ID: "ok"}, nil
		}},
		{ID: "E1", Mach: core.DefaultMachine()},
	}
	_, err := Run(context.Background(), jobs, Options[*experiments.Result]{})
	if err == nil || !strings.Contains(err.Error(), "E1") || !strings.Contains(err.Error(), "no Run") {
		t.Errorf("err = %v, want a refusal naming E1", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d job(s) ran before the refusal", ran.Load())
	}
}
