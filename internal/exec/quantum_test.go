package exec

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// drive runs l to completion in cycle quanta of the given length (0:
// unsliced, one Run to NoDeadline) and returns the quanta consumed.
func drive(t *testing.T, l Loop, core *cpu.Core, quantum uint64) int {
	t.Helper()
	deadline := core.Now
	for quanta := 1; ; quanta++ {
		deadline += quantum
		if quantum == 0 {
			deadline = NoDeadline
		}
		done, err := l.Run(deadline)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return quanta
		}
		if quanta > 1<<22 {
			t.Fatal("loop did not converge")
		}
	}
}

// slicedCase is a closed run of n chasers, each hops long over its own
// chain, driven through a ticker at every quantum in quanta (the first
// must slice the run).
type slicedCase struct {
	n      int
	hops   int64
	mem    uint64
	seed   func(i int) int64
	ticker func(*Executor, []*Task) (*Ticker, error)
	quanta []uint64
}

// checkSliced checks that the case's ticker sliced at each quantum is
// byte-identical to the same run unsliced: same stats, same final
// clock, same memory hierarchy counters, same architectural results.
// The SMT loop's twin is smt's TestRunnerSlicedEquivalence.
func checkSliced(t *testing.T, tc slicedCase) {
	t.Helper()
	run := func(quantum uint64) (Stats, uint64, mem.Stats, []uint64, int) {
		core, m := newMachine(t, testImage, tc.mem)
		var heads []uint64
		for i := 0; i < tc.n; i++ {
			heads = append(heads, buildChain(m, 256, tc.seed(i)))
		}
		var tasks []*Task
		for i, head := range heads {
			tasks = append(tasks, chaseTask(core, m, i, tc.hops, head))
		}
		tk, err := tc.ticker(New(core, DefaultConfig()), tasks)
		if err != nil {
			t.Fatal(err)
		}
		quanta := drive(t, tk, core, quantum)
		var results []uint64
		for _, task := range tasks {
			results = append(results, task.Ctx.Result)
		}
		return tk.Stats(), core.Now, core.Hier.Stats, results, quanta
	}
	refSt, refNow, refMem, refRes, _ := run(0)
	for i, quantum := range tc.quanta {
		st, now, memSt, res, quanta := run(quantum)
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("quantum %d: stats diverged\n got %+v\nwant %+v", quantum, st, refSt)
		}
		if now != refNow {
			t.Errorf("quantum %d: clock diverged: %d vs %d", quantum, now, refNow)
		}
		if memSt != refMem {
			t.Errorf("quantum %d: memory stats diverged", quantum)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("quantum %d: results diverged: %v vs %v", quantum, res, refRes)
		}
		if i == 0 && quanta < 2 {
			t.Errorf("quantum %d: run finished in %d quanta; slicing untested", quantum, quanta)
		}
	}
}

// A ticker sliced at arbitrary cycle deadlines must be byte-identical
// to the unsliced solo run: the flat loop's budget stop is a fuel split.
func TestTickerSoloEquivalence(t *testing.T) {
	checkSliced(t, slicedCase{
		n: 1, hops: 400, mem: 1 << 20, seed: func(int) int64 { return 7 },
		ticker: func(e *Executor, ts []*Task) (*Ticker, error) { return e.NewTicker(ts, true) },
		quanta: []uint64{64, 257, 1000, 1 << 20},
	})
}

// Same property for the symmetric discipline, where slicing interacts
// with yields, context switches, and the rotation order.
func TestTickerSymmetricEquivalence(t *testing.T) {
	checkSliced(t, slicedCase{
		n: 6, hops: 300, mem: 4 << 20, seed: func(int) int64 { return 3 },
		ticker: func(e *Executor, ts []*Task) (*Ticker, error) { return e.NewTicker(ts, false) },
		quanta: []uint64{64, 509, 4096, 1 << 24},
	})
}

func TestTickerValidation(t *testing.T) {
	core, _ := newMachine(t, testImage, 1<<20)
	e := New(core, DefaultConfig())
	if _, err := e.NewTicker(nil, false); err == nil {
		t.Error("empty task set accepted")
	}
	core2, m := newMachine(t, testImage, 1<<20)
	e2 := New(core2, DefaultConfig())
	t0 := chaseTask(core2, m, 0, 1, buildChain(m, 16, 1))
	t1 := chaseTask(core2, m, 1, 1, buildChain(m, 16, 1))
	if _, err := e2.NewTicker([]*Task{t0, t1}, true); err == nil {
		t.Error("solo ticker accepted two tasks")
	}
	if _, err := e2.NewSMTTicker(nil, 4); err == nil {
		t.Error("empty SMT task set accepted")
	}
	if _, err := e2.NewSMTTicker([]*Task{t0, t1}, 0); err == nil {
		t.Error("SMT ticker accepted a zero quantum")
	}
}

func TestTickerFuelExhaustion(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	cfg := DefaultConfig()
	cfg.MaxSteps = 50
	e := New(core, cfg)
	task := chaseTask(core, m, 0, 1<<20, buildChain(m, 256, 5))
	tk, err := e.NewTicker([]*Task{task}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		done, err := tk.Run(core.Now + 100)
		if errors.Is(err, ErrFuelExhausted) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("run completed despite tiny fuel budget")
		}
	}
	t.Fatal("fuel exhaustion never reported")
}
