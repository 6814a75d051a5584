package exec

import (
	"reflect"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// countingObserver is a minimal PEBS-shaped observer: attaching it must
// put the core on its per-instruction scalar dispatch without changing
// any simulated outcome.
type countingObserver struct {
	retires  uint64
	branches uint64
}

func (o *countingObserver) OnRetire(cpu.RetireEvent) { o.retires++ }
func (o *countingObserver) OnBranch(cpu.BranchEvent) { o.branches++ }

// blockDualModeRun executes the standard dual-mode scenario (chase primary +
// two compute scavengers) and returns its stats and scheduling trace.
// setup tweaks the core after executor construction (clear its traces,
// attach observers) and before the run.
func blockDualModeRun(t *testing.T, setup func(*cpu.Core)) (Stats, []trace.Event) {
	t.Helper()
	core, m := newMachine(t, testImage, 8<<20)
	head := buildChain(m, 512, 99)
	ring := trace.NewRing(1 << 14)
	cfg := DefaultConfig()
	cfg.Tracer = ring
	e := New(core, cfg)
	setup(core)
	primary := chaseTask(core, m, 0, 400, head)
	scavs := []*Task{scavTask(core, m, 1, 2000), scavTask(core, m, 2, 2000)}
	st, err := e.RunDualMode(primary, scavs)
	if err != nil {
		t.Fatal(err)
	}
	return st, ring.Events()
}

// TestObserverFallbackMatchesFastPath pins the profiling contract at the
// executor level: a dual-mode run with an attached observer (which keeps
// the core on its per-instruction scalar dispatch) must produce
// Stats and a scheduling trace identical to both the fast path the core
// is born with and plain block dispatch with its traces cleared — and the
// observer must see every retirement.
func TestObserverFallbackMatchesFastPath(t *testing.T) {
	fastStats, fastTrace := blockDualModeRun(t, func(c *cpu.Core) {})

	var blockCore *cpu.Core
	slowStats, slowTrace := blockDualModeRun(t, func(c *cpu.Core) {
		c.ClearSuperblocks()
		blockCore = c
	})
	if n := blockCore.SuperblockStats().Activations; n != 0 {
		t.Fatalf("the block arm entered %d superblock traces", n)
	}

	obs := &countingObserver{}
	obsStats, obsTrace := blockDualModeRun(t, func(c *cpu.Core) {
		c.Observe(obs)
	})

	if !reflect.DeepEqual(fastStats, slowStats) {
		t.Fatalf("fast vs slow stats diverge:\n fast: %+v\n slow: %+v", fastStats, slowStats)
	}
	if !reflect.DeepEqual(fastStats, obsStats) {
		t.Fatalf("fast vs observer stats diverge:\n fast: %+v\n obs:  %+v", fastStats, obsStats)
	}
	if !reflect.DeepEqual(fastTrace, slowTrace) {
		t.Fatalf("fast vs slow traces diverge: %d vs %d events", len(fastTrace), len(slowTrace))
	}
	if !reflect.DeepEqual(fastTrace, obsTrace) {
		t.Fatalf("fast vs observer traces diverge: %d vs %d events", len(fastTrace), len(obsTrace))
	}
	if obs.retires != obsStats.Retired {
		t.Fatalf("observer saw %d retires, stats retired %d", obs.retires, obsStats.Retired)
	}
	if obs.branches == 0 {
		t.Fatal("observer saw no branch events in a looping workload")
	}
}

// TestExecutorsAgreeWithPlanCleared drives every executor discipline
// on the per-instruction path, forced by an attached observer, and
// compares against the fast path: the block and superblock tiers must be
// a pure optimization at every call site.
func TestExecutorsAgreeWithPlanCleared(t *testing.T) {
	type result struct {
		st  Stats
		now uint64
	}
	run := func(fast bool, mode string) result {
		core, m := newMachine(t, testImage, 8<<20)
		head := buildChain(m, 512, 7)
		e := New(core, DefaultConfig())
		if !fast {
			core.Observe(&countingObserver{})
		}
		var st Stats
		var err error
		switch mode {
		case "solo":
			st, err = e.RunSolo(chaseTask(core, m, 0, 300, head))
		case "symmetric":
			st, err = e.RunSymmetric([]*Task{
				chaseTask(core, m, 0, 300, head),
				scavTask(core, m, 1, 1500),
			})
		case "windowed":
			st, err = e.RunWindowed([]*Task{
				chaseTask(core, m, 0, 200, head),
				scavTask(core, m, 1, 800),
				scavTask(core, m, 2, 800),
			}, 2)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return result{st, core.Now}
	}
	for _, mode := range []string{"solo", "symmetric", "windowed"} {
		fast := run(true, mode)
		slow := run(false, mode)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%s: fast vs slow diverge:\n fast: %+v\n slow: %+v", mode, fast, slow)
		}
	}
}

// TestDisableSuperblocksClearsTraces pins what the knob means now that a
// core is born with its traces: New clears them. A context in a counting
// loop that never yields gets a lap summary from QuietLaps on the core as
// built and none after New with DisableSuperblocks, and its run enters
// no trace.
func TestDisableSuperblocksClearsTraces(t *testing.T) {
	const loop = `
    top:
        addi r2, r2, 1
        addi r3, r3, -1
        cmpi r3, 0
        jgt top
        halt
`
	for _, disable := range []bool{false, true} {
		core, m := newMachine(t, loop, 1<<16)
		cfg := DefaultConfig()
		cfg.DisableSuperblocks = disable
		e := New(core, cfg)
		ctx := coro.NewContext(0, 0, m.Size()-8)
		ctx.Regs[3] = 100
		if cost, _, _ := core.QuietLaps(ctx); (cost == 0) != disable {
			t.Errorf("DisableSuperblocks=%v: QuietLaps lap cost %d", disable, cost)
		}
		if _, err := e.RunSolo(NewTask(ctx, coro.Primary)); err != nil {
			t.Fatal(err)
		}
		if n := core.SuperblockStats().Activations; (n == 0) != disable {
			t.Errorf("DisableSuperblocks=%v: %d trace entries", disable, n)
		}
	}
}
