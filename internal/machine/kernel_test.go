package machine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// call is one RunQuantum the kernel made.
type call struct {
	core     int
	deadline uint64
}

// fakeCore is done after its quanta-th quantum, or fails on its failAt-th
// (0: never). It logs every call and the goroutine count it ran with.
type fakeCore struct {
	id, quanta, failAt int
	log                *[]call
	calls              int
	goroutines         []int
}

var errFake = errors.New("fake core failed")

func (f *fakeCore) RunQuantum(deadline uint64) (bool, error) {
	f.calls++
	*f.log = append(*f.log, call{f.id, deadline})
	f.goroutines = append(f.goroutines, runtime.NumGoroutine())
	if f.calls == f.failAt {
		return false, fmt.Errorf("core %d's quantum %d: %w", f.id, f.calls, errFake)
	}
	return f.calls >= f.quanta, nil
}

// newFakeKernel builds a kernel with a 100-cycle quantum over one fake
// core per quanta entry; fail[i] is core i's failAt.
func newFakeKernel(quanta []int, fail map[int]int) (*Kernel, []*fakeCore, *[]call) {
	log := new([]call)
	fakes := make([]*fakeCore, len(quanta))
	cores := make([]Core, len(quanta))
	for i, q := range quanta {
		fakes[i] = &fakeCore{id: i, quanta: q, failAt: fail[i], log: log}
		cores[i] = fakes[i]
	}
	return NewKernel(nil, 100, cores), fakes, log
}

// step runs one Step and returns which calls it made and what it
// reported.
func step(k *Kernel, log *[]call) ([]call, bool, error) {
	*log = (*log)[:0]
	done, err := k.Step()
	return append([]call(nil), *log...), done, err
}

// Every Step calls the cores that are not done, in index order, each
// with the new barrier as its deadline, and advances Barrier and Quanta
// once; a finished kernel calls nothing.
func TestKernelStepsCoresInIndexOrder(t *testing.T) {
	k, _, log := newFakeKernel([]int{1, 3, 2}, nil)
	for i, want := range []struct {
		done  bool
		calls []call
	}{
		{false, []call{{0, 100}, {1, 100}, {2, 100}}},
		{false, []call{{1, 200}, {2, 200}}},
		{true, []call{{1, 300}}},
		{true, nil},
	} {
		calls, done, err := step(k, log)
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if done != want.done || !reflect.DeepEqual(calls, want.calls) {
			t.Errorf("step %d = (%v, %v), want (%v, %v)", i+1, done, calls, want.done, want.calls)
		}
		n := uint64(min(i+1, 3))
		if k.Quanta() != n || k.Barrier() != 100*n {
			t.Errorf("step %d: Quanta %d, Barrier %d; want %d, %d", i+1, k.Quanta(), k.Barrier(), n, 100*n)
		}
	}
}

// A failing quantum still runs every other core, and the error reported
// is the lowest-index core's. It stays: later Steps call nothing and
// return it again.
func TestKernelErrorIsLowestIndexAndSticky(t *testing.T) {
	k, fakes, log := newFakeKernel([]int{5, 5, 5}, map[int]int{1: 2, 2: 2})
	if _, done, err := step(k, log); done || err != nil {
		t.Fatalf("step 1 = (%v, %v), want (false, nil)", done, err)
	}
	calls, done, err := step(k, log)
	if !done || !errors.Is(err, errFake) || len(calls) != 3 {
		t.Fatalf("step 2 = (%v, %v) after %d calls, want (true, errFake) after 3", done, err, len(calls))
	}
	if want := "core 1: core 1's quantum 2: fake core failed"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	for i := 0; i < 2; i++ {
		calls, again, err2 := step(k, log)
		if !again || err2 != err || len(calls) != 0 {
			t.Errorf("Step after the error = (%v, %v) after %d calls, want (true, the same error) after none", again, err2, len(calls))
		}
	}
	if k.Quanta() != 2 {
		t.Errorf("Quanta %d, want 2", k.Quanta())
	}
	for _, f := range fakes {
		if f.calls != 2 {
			t.Errorf("core %d called %d times, want 2", f.id, f.calls)
		}
	}
}

// Step runs every core on its caller's goroutine.
func TestKernelStartsNoGoroutines(t *testing.T) {
	k, fakes, _ := newFakeKernel([]int{2, 4}, nil)
	base := runtime.NumGoroutine()
	for done := false; !done; {
		var err error
		if done, err = k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fakes {
		for q, n := range f.goroutines {
			if n != base {
				t.Errorf("core %d ran quantum %d with %d goroutines, %d before Step", f.id, q+1, n, base)
			}
		}
	}
}
