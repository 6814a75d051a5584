package machine

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// observedRun is everything a machine run makes observable: the full
// Stats (per-core exec stats and hierarchy counters included), the one
// shared ring's events and the shared registry's snapshot.
type observedRun struct {
	st     Stats
	events []trace.Event
	snap   metrics.Snapshot
}

// runObserved executes chaseSpec on cores cores under mode with a small
// quantum (many barriers and commits), one ring and one registry
// observing every core.
func runObserved(t *testing.T, cores int, mode Mode) observedRun {
	t.Helper()
	topo := DefaultTopology(cores)
	topo.Quantum = 512
	ring, reg := trace.NewRing(1<<12), &metrics.Registry{}
	m, err := New(topo, RunConfig{Spec: chaseSpec(), Mode: mode, Exec: exec.Config{Tracer: ring, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return observedRun{st, ring.Events(), reg.Snapshot()}
}

// run8 executes the canonical 8-core determinism workload.
func run8(t *testing.T) observedRun { return runObserved(t, 8, ModeSymmetric) }

// compareRuns fails when two observed runs differ anywhere.
func compareRuns(t *testing.T, label string, got, want observedRun) {
	t.Helper()
	if !reflect.DeepEqual(got.st, want.st) {
		t.Errorf("%s: stats diverged", label)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: shared trace diverged (%d vs %d events)", label, len(got.events), len(want.events))
	}
	if got.snap != want.snap {
		t.Errorf("%s: shared registry diverged", label)
	}
}

// The acceptance criterion of the quantum kernel: an 8-core run is
// byte-identical — Stats, the shared trace, the shared registry —
// across GOMAXPROCS settings and across repeated runs with the same
// seed.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ref := run8(t)
	if ref.st.LLC.Hits+ref.st.LLC.Misses == 0 {
		t.Fatal("workload generated no LLC traffic; determinism test is vacuous")
	}
	cores := map[int]bool{}
	for _, e := range ref.events {
		cores[e.Core] = true
	}
	if len(cores) != 8 {
		t.Fatalf("shared trace holds events of %d cores, want 8", len(cores))
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		compareRuns(t, "GOMAXPROCS="+strconv.Itoa(procs), run8(t), ref)
	}
}

func TestDeterminismAcrossRepeatedRuns(t *testing.T) {
	ref := run8(t)
	for rep := 0; rep < 3; rep++ {
		compareRuns(t, "repeat "+strconv.Itoa(rep), run8(t), ref)
	}
}

// ModeSMT under the kernel must be deterministic too, shared registry
// included.
func TestDeterminismSMT(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ref := runObserved(t, 4, ModeSMT)
	if ref.snap.Sched.Requests == 0 {
		t.Fatal("SMT run recorded no requests; determinism test is vacuous")
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		compareRuns(t, "SMT GOMAXPROCS="+strconv.Itoa(procs), runObserved(t, 4, ModeSMT), ref)
	}
}
