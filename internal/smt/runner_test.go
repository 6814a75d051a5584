package smt

import (
	"reflect"
	"testing"

	"repro/internal/coro"
	"repro/internal/exec"
)

// The SMT loop driven in fixed cycle quanta through the closed-loop
// runner (exec.Ticker) must be byte-identical to the run-to-completion
// Run: same stats, same final clock, same memory counters, same
// architectural results — the block engine's busy-budget stop is a fuel
// split, and the idle advance splits losslessly because the remaining
// wait is re-derived from the wake-ups. The flat loops' twins are
// exec's TestTickerSoloEquivalence and TestTickerSymmetricEquivalence.
func TestRunnerSlicedEquivalence(t *testing.T) {
	cfg := Config{Contexts: 4, MaxSteps: 1 << 24}
	refCore, refM := machine(t)
	var refCtxs []*coro.Context
	for i := 0; i < 4; i++ {
		refCtxs = append(refCtxs, chaser(refM, i, 300, buildChain(refM, 256, int64(30+i))))
	}
	refSt, err := Run(refCore, cfg, refCtxs)
	if err != nil {
		t.Fatal(err)
	}
	refMem := refCore.Hier.Stats

	for _, quantum := range []uint64{32, 257, 2048, 1 << 24} {
		core, m := machine(t)
		var tasks []*exec.Task
		for i := 0; i < 4; i++ {
			tasks = append(tasks, &exec.Task{Ctx: chaser(m, i, 300, buildChain(m, 256, int64(30+i)))})
		}
		fit, err := cfg.Fit(len(tasks))
		if err != nil {
			t.Fatal(err)
		}
		tk, err := exec.New(core, exec.Config{MaxSteps: fit.MaxSteps}).NewSMTTicker(tasks, fit.Quantum)
		if err != nil {
			t.Fatal(err)
		}
		deadline := core.Now
		quanta := 0
		for {
			deadline += quantum
			done, err := tk.Run(deadline)
			if err != nil {
				t.Fatal(err)
			}
			quanta++
			if done {
				break
			}
			if quanta > 1<<22 {
				t.Fatal("runner did not converge")
			}
		}
		if st := tk.Stats(); !reflect.DeepEqual(st, refSt) {
			t.Errorf("quantum %d: stats diverged\n got %+v\nwant %+v", quantum, st, refSt)
		}
		if core.Now != refCore.Now {
			t.Errorf("quantum %d: clock diverged: %d vs %d", quantum, core.Now, refCore.Now)
		}
		if core.Hier.Stats != refMem {
			t.Errorf("quantum %d: memory stats diverged", quantum)
		}
		for i, task := range tasks {
			if task.Ctx.Result != refCtxs[i].Result {
				t.Errorf("quantum %d: context %d result diverged", quantum, i)
			}
		}
		if quantum == 32 && quanta < 2 {
			t.Error("slicing untested: one quantum sufficed")
		}
	}
}

// Config.Fit is the check every SMT runner's caller makes before
// building the loop: it refuses what NewSMTTicker cannot run as
// hardware threads and fills the zero knobs with DefaultConfig's.
func TestRunnerValidation(t *testing.T) {
	if _, err := (Config{Contexts: 0}).Fit(1); err == nil {
		t.Error("zero contexts accepted")
	}
	if _, err := (Config{Contexts: 2}).Fit(0); err == nil {
		t.Error("empty context list accepted")
	}
	if _, err := (Config{Contexts: 1}).Fit(2); err == nil {
		t.Error("oversubscription accepted")
	}
	def := DefaultConfig()
	got, err := (Config{Contexts: 4}).Fit(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{Contexts: 4, Quantum: def.Quantum, MaxSteps: def.MaxSteps}); got != want {
		t.Errorf("defaults not filled: got %+v, want %+v", got, want)
	}
	if got, _ := (Config{Contexts: 2, Quantum: 9, MaxSteps: 100}).Fit(1); got.Quantum != 9 || got.MaxSteps != 100 {
		t.Errorf("explicit knobs overridden: %+v", got)
	}
}
