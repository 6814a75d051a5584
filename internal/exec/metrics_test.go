package exec

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// dualModeRun builds the standard chase-plus-scavengers machine and runs
// it in dual mode with the given config, returning the run stats and the
// executor (for post-run metric harvesting).
func dualModeRun(t *testing.T, cfg Config) (Stats, *Executor) {
	t.Helper()
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 256, 7)
	p := chaseTask(core, m, 0, 400, head)
	scavs := []*Task{scavTask(core, m, 1, 4000), scavTask(core, m, 2, 4000)}
	e := New(core, cfg)
	st, err := e.RunDualMode(p, scavs)
	if err != nil {
		t.Fatal(err)
	}
	return st, e
}

// TestMetricsReconcileWithStats pins the reconciliation invariant: the
// harvested Exec section must agree exactly with the Stats the run
// returns, and the Mem/CPU sections must mirror the always-on core
// counters.
func TestMetricsReconcileWithStats(t *testing.T) {
	var reg metrics.Registry
	cfg := DefaultConfig()
	cfg.Metrics = &reg
	st, e := dualModeRun(t, cfg)
	e.CaptureMetrics()

	if st.Episodes == 0 {
		t.Fatal("run produced no episodes; test is vacuous")
	}
	if reg.Exec.Episodes != st.Episodes {
		t.Errorf("Exec.Episodes = %d, Stats.Episodes = %d", reg.Exec.Episodes, st.Episodes)
	}
	if reg.Exec.EpisodeDur.Count != st.Episodes {
		t.Errorf("EpisodeDur.Count = %d, want %d", reg.Exec.EpisodeDur.Count, st.Episodes)
	}
	if reg.Exec.EpisodeCover.Count != st.Episodes {
		t.Errorf("EpisodeCover.Count = %d, want %d", reg.Exec.EpisodeCover.Count, st.Episodes)
	}
	if reg.Exec.Chains != st.ChainSwitches {
		t.Errorf("Exec.Chains = %d, Stats.ChainSwitches = %d", reg.Exec.Chains, st.ChainSwitches)
	}
	if reg.Exec.HWSkips != st.HWSkips {
		t.Errorf("Exec.HWSkips = %d, Stats.HWSkips = %d", reg.Exec.HWSkips, st.HWSkips)
	}
	// Away time decomposes into hidden + overshoot, and overshoot must
	// reconcile with the primary-delay the run reported (scavenger halts
	// return to the primary through the same endEpisode path).
	if reg.Exec.HiddenCycles+reg.Exec.OvershootCycles != reg.Exec.EpisodeCycles {
		t.Errorf("hidden %d + overshoot %d != episode cycles %d",
			reg.Exec.HiddenCycles, reg.Exec.OvershootCycles, reg.Exec.EpisodeCycles)
	}
	if reg.Exec.EpisodeDur.Sum != reg.Exec.EpisodeCycles {
		t.Errorf("EpisodeDur.Sum = %d, want EpisodeCycles %d",
			reg.Exec.EpisodeDur.Sum, reg.Exec.EpisodeCycles)
	}

	if reg.CPU.Retired != e.Core.Counters.Retired {
		t.Errorf("CPU.Retired = %d, core retired %d", reg.CPU.Retired, e.Core.Counters.Retired)
	}
	hs := e.Core.Hier.Stats
	if reg.Mem.Prefetches != hs.Prefetches {
		t.Errorf("Mem.Prefetches = %d, hierarchy %d", reg.Mem.Prefetches, hs.Prefetches)
	}
	if reg.Mem.MSHRPeak != hs.MSHRPeak {
		t.Errorf("Mem.MSHRPeak = %d, hierarchy peak %d", reg.Mem.MSHRPeak, hs.MSHRPeak)
	}
}

// TestMetricsHWSkipsReconcile exercises the presence-probe skip counter.
func TestMetricsHWSkipsReconcile(t *testing.T) {
	var reg metrics.Registry
	cfg := DefaultConfig()
	cfg.HWAssist = true
	cfg.Metrics = &reg
	st, e := dualModeRun(t, cfg)
	e.CaptureMetrics()
	if reg.Exec.HWSkips != st.HWSkips {
		t.Errorf("Exec.HWSkips = %d, Stats.HWSkips = %d", reg.Exec.HWSkips, st.HWSkips)
	}
}

// TestEpisodeAccountingAlwaysOn: the hide-episode accounting is counted
// whether or not a registry is attached, so a registry attached only for
// the harvest receives the whole run.
func TestEpisodeAccountingAlwaysOn(t *testing.T) {
	st, e := dualModeRun(t, DefaultConfig())
	if st.Episodes == 0 || st.ChainSwitches == 0 {
		t.Fatalf("run produced %d episodes and %d chains; test is vacuous", st.Episodes, st.ChainSwitches)
	}
	var reg metrics.Registry
	e.Cfg.Metrics = &reg
	e.CaptureMetrics()
	if reg.Exec.Episodes != st.Episodes || reg.Exec.EpisodeDur.Count != st.Episodes {
		t.Errorf("Exec.Episodes = %d, EpisodeDur.Count = %d, Stats.Episodes = %d",
			reg.Exec.Episodes, reg.Exec.EpisodeDur.Count, st.Episodes)
	}
	if reg.Exec.Chains != st.ChainSwitches {
		t.Errorf("Exec.Chains = %d, Stats.ChainSwitches = %d", reg.Exec.Chains, st.ChainSwitches)
	}
	if reg.Exec.OvershootCycles != st.PrimaryDelay {
		t.Errorf("Exec.OvershootCycles = %d, Stats.PrimaryDelay = %d", reg.Exec.OvershootCycles, st.PrimaryDelay)
	}
}

// TestEpisodeAccountingSpansLoops: an executor that builds several Asym
// loops keeps one accounting for all of them. Each run's Stats reports
// only its own loop's share; the harvest adds them all.
func TestEpisodeAccountingSpansLoops(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	var reg metrics.Registry
	cfg := DefaultConfig()
	cfg.Metrics = &reg
	e := New(core, cfg)
	var sum Stats
	for i := 0; i < 2; i++ {
		p := chaseTask(core, m, 3*i, 400, buildChain(m, 256, int64(7+i)))
		scavs := []*Task{scavTask(core, m, 3*i+1, 4000), scavTask(core, m, 3*i+2, 4000)}
		st, err := e.RunDualMode(p, scavs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Episodes == 0 {
			t.Fatalf("run %d produced no episodes; test is vacuous", i)
		}
		sum.Episodes += st.Episodes
		sum.ChainSwitches += st.ChainSwitches
		sum.PrimaryDelay += st.PrimaryDelay
	}
	e.CaptureMetrics()
	if reg.Exec.Episodes != sum.Episodes || reg.Exec.Chains != sum.ChainSwitches || reg.Exec.OvershootCycles != sum.PrimaryDelay {
		t.Errorf("harvest episodes/chains/overshoot = %d/%d/%d, runs sum to %d/%d/%d",
			reg.Exec.Episodes, reg.Exec.Chains, reg.Exec.OvershootCycles,
			sum.Episodes, sum.ChainSwitches, sum.PrimaryDelay)
	}
}

// TestMetricsDoNotPerturbRun: attaching a registry is pure observation —
// the simulated run must be cycle-for-cycle identical with and without.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	plain, _ := dualModeRun(t, DefaultConfig())
	var reg metrics.Registry
	cfg := DefaultConfig()
	cfg.Metrics = &reg
	observed, _ := dualModeRun(t, cfg)
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", observed) {
		t.Errorf("metrics perturbed the run:\n  plain:    %+v\n  observed: %+v", plain, observed)
	}
}

// TestMetricsOnPathAllocFree guards the inline-uint64 rule at the
// executor level: the metrics-on bump and harvest paths must not
// allocate (the same contract the nil-tracer fast path has).
func TestMetricsOnPathAllocFree(t *testing.T) {
	var reg metrics.Registry
	cfg := DefaultConfig()
	cfg.Metrics = &reg
	_, e := dualModeRun(t, cfg)
	allocs := testing.AllocsPerRun(100, func() {
		reg.Exec.NoteEpisode(321, 300)
		reg.Exec.Chains++
		reg.Exec.HWSkips++
		e.CaptureMetrics()
	})
	if allocs != 0 {
		t.Errorf("metrics-on bump/harvest path allocates %.1f/op, want 0", allocs)
	}
}
