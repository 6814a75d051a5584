package exec

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// runTicker drives a ticker in fixed cycle quanta until completion and
// returns its stats plus the quanta consumed.
func runTicker(t *testing.T, tk *Ticker, quantum uint64) (Stats, int) {
	t.Helper()
	deadline := tk.e.Core.Now
	quanta := 0
	for {
		deadline += quantum
		done, err := tk.Run(deadline)
		if err != nil {
			t.Fatal(err)
		}
		quanta++
		if done {
			return tk.Stats(), quanta
		}
		if quanta > 1<<22 {
			t.Fatal("ticker did not converge")
		}
	}
}

// A ticker sliced at arbitrary cycle deadlines must be byte-identical
// to the unsliced RunSolo: same stats, same final clock, same memory
// hierarchy counters, same architectural result.
func TestTickerSoloEquivalence(t *testing.T) {
	ref := func() (Stats, uint64, mem.Stats, uint64) {
		core, m := newMachine(t, testImage, 1<<20)
		task := chaseTask(core, m, 0, 400, buildChain(m, 256, 7))
		st, err := New(core, DefaultConfig()).RunSolo(task)
		if err != nil {
			t.Fatal(err)
		}
		return st, core.Now, core.Hier.Stats, task.Ctx.Result
	}
	refSt, refNow, refMem, refRes := ref()

	for _, quantum := range []uint64{64, 257, 1000, 1 << 20} {
		core, m := newMachine(t, testImage, 1<<20)
		task := chaseTask(core, m, 0, 400, buildChain(m, 256, 7))
		e := New(core, DefaultConfig())
		tk, err := e.NewTicker([]*Task{task}, true)
		if err != nil {
			t.Fatal(err)
		}
		st, quanta := runTicker(t, tk, quantum)
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("quantum %d: stats diverged\n got %+v\nwant %+v", quantum, st, refSt)
		}
		if core.Now != refNow || task.Ctx.Result != refRes {
			t.Errorf("quantum %d: clock/result diverged", quantum)
		}
		if core.Hier.Stats != refMem {
			t.Errorf("quantum %d: memory stats diverged", quantum)
		}
		if quantum == 64 && quanta < 2 {
			t.Errorf("quantum %d: run finished in %d quanta; slicing untested", quantum, quanta)
		}
	}
}

// Same property for the symmetric discipline, where slicing interacts
// with yields, context switches, and the rotation order.
func TestTickerSymmetricEquivalence(t *testing.T) {
	build := func() (*Executor, []*Task) {
		core, m := newMachine(t, testImage, 4<<20)
		var tasks []*Task
		var heads []uint64
		for i := 0; i < 6; i++ {
			heads = append(heads, buildChain(m, 256, 3))
		}
		for i := 0; i < 6; i++ {
			tasks = append(tasks, chaseTask(core, m, i, 300, heads[i]))
		}
		return New(core, DefaultConfig()), tasks
	}

	eRef, refTasks := build()
	refSt, err := eRef.RunSymmetric(refTasks)
	if err != nil {
		t.Fatal(err)
	}
	refNow := eRef.Core.Now
	refMem := eRef.Core.Hier.Stats

	for _, quantum := range []uint64{64, 509, 4096, 1 << 24} {
		e, tasks := build()
		tk, err := e.NewTicker(tasks, false)
		if err != nil {
			t.Fatal(err)
		}
		st, quanta := runTicker(t, tk, quantum)
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("quantum %d: stats diverged\n got %+v\nwant %+v", quantum, st, refSt)
		}
		if e.Core.Now != refNow {
			t.Errorf("quantum %d: clock diverged: %d vs %d", quantum, e.Core.Now, refNow)
		}
		if e.Core.Hier.Stats != refMem {
			t.Errorf("quantum %d: memory stats diverged", quantum)
		}
		for i := range tasks {
			if tasks[i].Ctx.Result != refTasks[i].Ctx.Result {
				t.Errorf("quantum %d: task %d result diverged", quantum, i)
			}
		}
		if quantum == 64 && quanta < 2 {
			t.Error("slicing untested: one quantum sufficed")
		}
	}
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
