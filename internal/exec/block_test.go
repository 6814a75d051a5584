package exec

import (
	"reflect"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// countingObserver is a minimal PEBS-shaped observer: it counts what a
// sampler reads — loads, stores, accelerator waits, exposed stall cycles
// and taken branches — and attaching it must change no simulated outcome.
type countingObserver struct {
	loads, stores, accWaits, stallCycles uint64
	branches                             uint64
}

func (o *countingObserver) OnRetire(e cpu.RetireEvent) {
	if e.IsLoad {
		o.loads++
	}
	if e.IsStore {
		o.stores++
	}
	if e.IsAccWait {
		o.accWaits++
	}
	o.stallCycles += e.Stall
}

func (o *countingObserver) OnBranch(cpu.BranchEvent) { o.branches++ }

// sum adds up a per-PC counter.
func sum(perPC []uint64) (n uint64) {
	for _, v := range perPC {
		n += v
	}
	return n
}

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
// executor level: a dual-mode run with an attached observer must produce
// Stats and a scheduling trace identical to both the fast path the core
// is born with and plain block dispatch with its traces cleared — and the
// observer must see every load, store, accelerator wait and stall cycle
// the core counted, from a run that still entered the traces.
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
	var obsCore *cpu.Core
	obsStats, obsTrace := blockDualModeRun(t, func(c *cpu.Core) {
		c.Observe(obs)
		obsCore = c
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
	cnt := obsCore.Counters
	if obs.loads != sum(cnt.Loads) || obs.stores != sum(cnt.Stores) || obs.accWaits != sum(cnt.AccWaits) || obs.stallCycles != cnt.Stall {
		t.Fatalf("observer saw %d loads, %d stores, %d waits, %d stall cycles; the core counted %d, %d, %d, %d",
			obs.loads, obs.stores, obs.accWaits, obs.stallCycles, sum(cnt.Loads), sum(cnt.Stores), sum(cnt.AccWaits), cnt.Stall)
	}
	if obs.loads == 0 || obs.branches == 0 {
		t.Fatalf("observer saw %d loads and %d branch events in a looping chase workload", obs.loads, obs.branches)
	}
	if obsCore.SuperblockStats().Activations == 0 {
		t.Fatal("the observed run entered no trace")
	}
}

// TestExecutorsAgreeWithPlanCleared drives every executor discipline on
// three arms — the fast path a core is born with, its traces cleared, and
// the fast path under an observer — which must agree on Stats and the
// final clock: the trace tier and observation are pure optimization and
// pure observation at every call site.
func TestExecutorsAgreeWithPlanCleared(t *testing.T) {
	type result struct {
		st  Stats
		now uint64
	}
	run := func(arm, mode string) result {
		core, m := newMachine(t, testImage, 8<<20)
		head := buildChain(m, 512, 7)
		e := New(core, DefaultConfig())
		switch arm {
		case "cleared":
			core.ClearSuperblocks()
		case "observed":
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
			t.Fatalf("%s %s: %v", arm, mode, err)
		}
		return result{st, core.Now}
	}
	for _, mode := range []string{"solo", "symmetric", "windowed"} {
		fast := run("fast", mode)
		for _, arm := range []string{"cleared", "observed"} {
			if other := run(arm, mode); !reflect.DeepEqual(fast, other) {
				t.Fatalf("%s: fast vs %s diverge:\n fast: %+v\n %s: %+v", mode, arm, fast, arm, other)
			}
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
