package pebs

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
)

func loadEvent(pc int, stall uint64, missL2, missL3 bool, now uint64) cpu.RetireEvent {
	return cpu.RetireEvent{PC: pc, Now: now, IsLoad: true, Stall: stall, MissedL2: missL2, MissedL3: missL3}
}

func TestSamplingPeriod(t *testing.T) {
	cfg := Config{BufferSize: 1000, Precise: true}
	cfg.Periods[EvLoadRetired] = 10
	s := NewSampler(cfg, 100)
	for i := 0; i < 95; i++ {
		s.OnRetire(loadEvent(5, 0, false, false, uint64(i)))
	}
	if len(s.Samples) != 9 {
		t.Fatalf("got %d samples from 95 events at period 10, want 9", len(s.Samples))
	}
	for _, smp := range s.Samples {
		if smp.Event != EvLoadRetired || smp.PC != 5 || smp.Weight != 10 {
			t.Errorf("bad sample: %+v", smp)
		}
	}
	if s.Occurrences(EvLoadRetired) != 95 {
		t.Errorf("occurrences = %d", s.Occurrences(EvLoadRetired))
	}
}

func TestWeightedStallEvents(t *testing.T) {
	cfg := Config{BufferSize: 1000, Precise: true}
	cfg.Periods[EvStallCycle] = 100
	s := NewSampler(cfg, 10)
	// One retire contributing 250 stall cycles must produce 2 samples and
	// leave 50 toward the next.
	s.OnRetire(loadEvent(3, 250, true, true, 0))
	if len(s.Samples) != 2 {
		t.Fatalf("got %d stall samples, want 2", len(s.Samples))
	}
	s.OnRetire(loadEvent(3, 50, true, true, 1))
	if len(s.Samples) != 3 {
		t.Fatalf("got %d stall samples after 300 total, want 3", len(s.Samples))
	}
}

func TestSkidAttribution(t *testing.T) {
	cfg := Config{BufferSize: 10, Precise: false}
	cfg.Periods[EvLoadRetired] = 1
	s := NewSampler(cfg, 100)
	s.OnRetire(loadEvent(7, 0, false, false, 0))
	if s.Samples[0].PC != 8 {
		t.Errorf("imprecise sample PC = %d, want 8 (skid)", s.Samples[0].PC)
	}
	// Skid clamps at the end of the program.
	s2 := NewSampler(cfg, 8)
	s2.OnRetire(loadEvent(7, 0, false, false, 0))
	if s2.Samples[0].PC != 7 {
		t.Errorf("clamped skid PC = %d, want 7", s2.Samples[0].PC)
	}
}

func TestBufferOverflow(t *testing.T) {
	cfg := Config{BufferSize: 5, Precise: true}
	cfg.Periods[EvLoadRetired] = 1
	s := NewSampler(cfg, 10)
	for i := 0; i < 12; i++ {
		s.OnRetire(loadEvent(1, 0, false, false, uint64(i)))
	}
	if len(s.Samples) != 5 || s.Dropped != 7 {
		t.Errorf("samples=%d dropped=%d, want 5 and 7", len(s.Samples), s.Dropped)
	}
	if s.OverheadCycles() != 12*s.cfg.CostPerSample {
		t.Errorf("overhead = %d", s.OverheadCycles())
	}
}

func TestDisabledEventRecordsNothing(t *testing.T) {
	cfg := Config{BufferSize: 10}
	s := NewSampler(cfg, 10)
	s.OnRetire(loadEvent(1, 500, true, true, 0))
	if len(s.Samples) != 0 {
		t.Error("disabled events must not sample")
	}
	if s.Occurrences(EvLoadL2Miss) != 1 {
		t.Error("occurrences should still count")
	}
}

func TestMissEventClassification(t *testing.T) {
	cfg := Config{BufferSize: 100, Precise: true}
	cfg.Periods[EvLoadL2Miss] = 1
	cfg.Periods[EvLoadL3Miss] = 1
	s := NewSampler(cfg, 10)
	s.OnRetire(loadEvent(2, 0, true, false, 0)) // L3 hit
	s.OnRetire(loadEvent(2, 0, true, true, 1))  // DRAM
	var l2, l3 int
	for _, smp := range s.Samples {
		switch smp.Event {
		case EvLoadL2Miss:
			l2++
		case EvLoadL3Miss:
			l3++
		}
	}
	if l2 != 2 || l3 != 1 {
		t.Errorf("l2=%d l3=%d, want 2 and 1", l2, l3)
	}
}

func TestLBRRingAndSnapshot(t *testing.T) {
	cfg := Config{LBRDepth: 4, LBREvery: 4}
	s := NewSampler(cfg, 100)
	// Simulated loop: 10 -> 2 edge taken repeatedly, each block taking 30
	// cycles (region entered at 2 runs until the branch at 10).
	now := uint64(0)
	for i := 0; i < 8; i++ {
		now += 30
		s.OnBranch(cpu.BranchEvent{From: 10, To: 2, Now: now, Cycles: 30})
	}
	lbr := s.LBR()
	if lbr.Edges[Edge{10, 2}] == 0 {
		t.Fatal("loop edge not observed")
	}
	avg, ok := lbr.AvgBlockCycles(2)
	if !ok || avg != 30 {
		t.Errorf("block latency = %v (ok=%v), want 30", avg, ok)
	}
	if _, ok := lbr.AvgBlockCycles(99); ok {
		t.Error("unknown block should have no observation")
	}
}

func TestLBRPartialRing(t *testing.T) {
	cfg := Config{LBRDepth: 32, LBREvery: 2}
	s := NewSampler(cfg, 100)
	s.OnBranch(cpu.BranchEvent{From: 5, To: 1, Cycles: 10})
	s.OnBranch(cpu.BranchEvent{From: 5, To: 1, Cycles: 12})
	// Snapshot of a partially filled ring must still count edges.
	if s.LBR().Edges[Edge{5, 1}] != 2 {
		t.Errorf("edges = %v", s.LBR().Edges)
	}
}

// TestLBRSnapshotCreditsRunsLikeRecords holds the run-folded snapshot to
// the per-record walk it replaced — one count and one first-observation
// check per ring record — over streams that are all one back-edge (what a
// ring sampled inside a loop holds), strictly alternating, random, and
// that open on the zero edge a fresh run detector starts out holding.
func TestLBRSnapshotCreditsRunsLikeRecords(t *testing.T) {
	const progLen = 8
	cfg := Config{LBRDepth: 8, LBREvery: 5}
	rng := rand.New(rand.NewSource(11))
	streams := map[string]func(i int) Edge{
		"one back-edge": func(int) Edge { return Edge{6, 2} },
		"alternating":   func(i int) Edge { return Edge{6 - i%2, 2} },
		"zero edge":     func(i int) Edge { return Edge{0, i / 7 % 2} },
		"random runs": func(int) Edge {
			if rng.Intn(3) == 0 {
				return Edge{rng.Intn(progLen), rng.Intn(progLen)}
			}
			return Edge{7, 1}
		},
	}
	for name, next := range streams {
		s := NewSampler(cfg, progLen)
		want := NewLBRStats(progLen)
		var window []BranchRecord // the ring's contents, oldest first
		for i := 0; i < 203; i++ {
			e, cycles := next(i), uint64(10+i%3)
			s.OnBranch(cpu.BranchEvent{From: e.From, To: e.To, Cycles: cycles})
			if window = append(window, BranchRecord{e.From, e.To, cycles}); len(window) > cfg.LBRDepth {
				window = window[1:]
			}
			if uint64(i+1)%cfg.LBREvery != 0 {
				continue
			}
			for j, rec := range window {
				e := Edge{rec.From, rec.To}
				if want.Edges[e] == 0 {
					want.edgeOrder = append(want.edgeOrder, e)
				}
				want.Edges[e]++
				if j > 0 {
					want.BlockCycleSum[window[j-1].To] += rec.Cycles
					want.BlockCycleCount[window[j-1].To]++
				}
			}
		}
		if got := s.LBR(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

func TestLBRDisabled(t *testing.T) {
	s := NewSampler(Config{}, 10)
	s.OnBranch(cpu.BranchEvent{From: 1, To: 0, Cycles: 5})
	if len(s.LBR().Edges) != 0 {
		t.Error("LBR disabled should record nothing")
	}
}

// Property: the estimate (samples × period) converges to the true count as
// events accumulate, within statistical tolerance.
func TestEstimateConvergence(t *testing.T) {
	cfg := Config{BufferSize: 1 << 20, Precise: true}
	cfg.Periods[EvLoadL2Miss] = 17
	s := NewSampler(cfg, 2)
	rng := rand.New(rand.NewSource(3))
	trueMisses := 0
	for i := 0; i < 100000; i++ {
		miss := rng.Float64() < 0.3
		if miss {
			trueMisses++
		}
		s.OnRetire(loadEvent(0, 0, miss, false, uint64(i)))
	}
	est := float64(len(s.Samples)) * 17
	err := est/float64(trueMisses) - 1
	if err < -0.05 || err > 0.05 {
		t.Errorf("estimate %f vs true %d: error %.3f", est, trueMisses, err)
	}
}

func TestEventKindString(t *testing.T) {
	for e := EventKind(0); int(e) < NumEvents; e++ {
		if e.String() == "" {
			t.Errorf("event %d has empty name", e)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown event should still render")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	for e := 0; e < NumEvents; e++ {
		if cfg.Periods[e] == 0 {
			t.Errorf("default config disables %v", EventKind(e))
		}
	}
	if cfg.LBRDepth != 32 {
		t.Errorf("LBRDepth = %d", cfg.LBRDepth)
	}
}

// TestFillMetrics: the harvested Sampler section must mirror the
// sampler's own accounting, including buffer drops.
func TestFillMetrics(t *testing.T) {
	cfg := Config{BufferSize: 5, Precise: true, CostPerSample: 7, LBRDepth: 4, LBREvery: 1}
	cfg.Periods[EvLoadRetired] = 1
	s := NewSampler(cfg, 100)
	for i := 0; i < 9; i++ {
		s.OnRetire(loadEvent(5, 0, false, false, uint64(i)))
	}
	for i := 0; i < 6; i++ {
		s.OnBranch(cpu.BranchEvent{From: i, To: i + 1, Now: uint64(i), Cycles: 10})
	}
	var m metrics.Sampler
	s.FillMetrics(&m)
	if m.Samples != uint64(len(s.Samples)) || m.Samples != 5 {
		t.Errorf("Samples = %d, want %d (= buffer size 5)", m.Samples, len(s.Samples))
	}
	if m.Dropped != s.Dropped || m.Dropped != 4 {
		t.Errorf("Dropped = %d, want 4", m.Dropped)
	}
	if m.Branches != 6 {
		t.Errorf("Branches = %d, want 6", m.Branches)
	}
	if m.OverheadCycles != s.OverheadCycles() || m.OverheadCycles != (5+4)*7 {
		t.Errorf("OverheadCycles = %d, want %d", m.OverheadCycles, (5+4)*7)
	}
}
