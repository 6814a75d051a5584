package pebs

import (
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// Sampler implements cpu.Observer, turning the retire stream into PEBS
// samples and LBR aggregates.
type Sampler struct {
	cfg Config

	countdown [NumEvents]uint64
	occurred  [NumEvents]uint64 // ground-truth occurrence counts (for tests/E10)

	Samples []Sample
	Dropped uint64

	ring     []BranchRecord
	ringPos  int
	ringFull bool
	branches uint64
	lbr      *LBRStats

	progLen int
}

var _ cpu.Observer = (*Sampler)(nil)

// NewSampler creates a sampler for a program of progLen instructions.
func NewSampler(cfg Config, progLen int) *Sampler {
	s := &Sampler{cfg: cfg, progLen: progLen, lbr: NewLBRStats(progLen)}
	for e := 0; e < NumEvents; e++ {
		s.countdown[e] = cfg.Periods[e]
	}
	if cfg.LBRDepth > 0 {
		s.ring = make([]BranchRecord, cfg.LBRDepth)
	}
	return s
}

// Config returns the sampler configuration.
func (s *Sampler) Config() Config { return s.cfg }

// LBR returns the aggregated last-branch statistics.
func (s *Sampler) LBR() *LBRStats { return s.lbr }

// Occurrences returns the true number of occurrences of an event seen by
// the sampler (all of them, not just the sampled ones).
func (s *Sampler) Occurrences(e EventKind) uint64 { return s.occurred[e] }

// OverheadCycles reports the modelled profiling overhead: per-sample cost
// times samples taken (including dropped ones, which still trapped).
func (s *Sampler) OverheadCycles() uint64 {
	return (uint64(len(s.Samples)) + s.Dropped) * s.cfg.CostPerSample
}

// FillMetrics harvests the sampler's overhead accounting into the
// registry's Sampler section. The counters are maintained
// unconditionally, so this copies rather than double-counting on the
// sampling path.
func (s *Sampler) FillMetrics(m *metrics.Sampler) {
	m.Samples = uint64(len(s.Samples))
	m.Dropped = s.Dropped
	m.Branches = s.branches
	m.OverheadCycles = s.OverheadCycles()
}

// attributePC applies the skid model.
func (s *Sampler) attributePC(pc int) int {
	if s.cfg.Precise {
		return pc
	}
	if pc+1 < s.progLen {
		return pc + 1
	}
	return pc
}

// bump advances the event counter by n occurrences and records samples at
// every period crossing.
func (s *Sampler) bump(e EventKind, n uint64, pc int, now uint64) {
	s.occurred[e] += n
	period := s.cfg.Periods[e]
	if period == 0 {
		return
	}
	for n > 0 {
		if s.countdown[e] > n {
			s.countdown[e] -= n
			return
		}
		n -= s.countdown[e]
		s.countdown[e] = period
		s.record(Sample{Event: e, PC: s.attributePC(pc), Weight: period, Now: now})
	}
}

func (s *Sampler) record(smp Sample) {
	if s.cfg.BufferSize > 0 && len(s.Samples) >= s.cfg.BufferSize {
		s.Dropped++
		return
	}
	s.Samples = append(s.Samples, smp)
}

// OnRetire implements cpu.Observer.
func (s *Sampler) OnRetire(e cpu.RetireEvent) {
	if e.IsLoad {
		s.bump(EvLoadRetired, 1, e.PC, e.Now)
		if e.MissedL2 {
			s.bump(EvLoadL2Miss, 1, e.PC, e.Now)
		}
		if e.MissedL3 {
			s.bump(EvLoadL3Miss, 1, e.PC, e.Now)
		}
	}
	if e.IsStore {
		s.bump(EvStoreRetired, 1, e.PC, e.Now)
		if e.MissedL2 {
			s.bump(EvStoreL2Miss, 1, e.PC, e.Now)
		}
		if e.MissedL3 {
			s.bump(EvStoreL3Miss, 1, e.PC, e.Now)
		}
	}
	if e.IsAccWait {
		s.bump(EvAccWaitRetired, 1, e.PC, e.Now)
	}
	if e.Stall > 0 {
		s.bump(EvStallCycle, e.Stall, e.PC, e.Now)
	}
}

// OnBranch implements cpu.Observer: it feeds the LBR ring and takes a
// snapshot every cfg.LBREvery taken branches.
func (s *Sampler) OnBranch(e cpu.BranchEvent) {
	if len(s.ring) == 0 {
		return
	}
	s.ring[s.ringPos] = BranchRecord{From: e.From, To: e.To, Cycles: e.Cycles}
	s.ringPos = (s.ringPos + 1) % len(s.ring)
	if s.ringPos == 0 {
		s.ringFull = true
	}
	s.branches++
	if s.cfg.LBREvery > 0 && s.branches%s.cfg.LBREvery == 0 {
		s.snapshot()
	}
}

// snapshot walks the ring oldest-to-newest, crediting edges and block
// latencies. The Cycles of record i measure the straight-line region
// entered at record i-1's target, so consecutive pairs are required. A
// ring snapshotted inside a loop holds its back-edge many times over, so
// a run of one edge is credited once, with its length: the same counts in
// the same first-observation order for a map update per run, not two per
// record.
func (s *Sampler) snapshot() {
	n := len(s.ring)
	if !s.ringFull {
		n = s.ringPos
	}
	if n == 0 {
		return
	}
	start := 0
	if s.ringFull {
		start = s.ringPos // oldest entry
	}
	prevTo := -1
	var run Edge
	var runLen uint64
	for i := 0; i < n; i++ {
		rec := s.ring[(start+i)%len(s.ring)]
		if e := (Edge{rec.From, rec.To}); e != run {
			if runLen > 0 {
				s.lbr.credit(run, runLen)
			}
			run, runLen = e, 0
		}
		runLen++
		if prevTo >= 0 && prevTo < len(s.lbr.BlockCycleSum) {
			s.lbr.BlockCycleSum[prevTo] += rec.Cycles
			s.lbr.BlockCycleCount[prevTo]++
		}
		prevTo = rec.To
	}
	s.lbr.credit(run, runLen)
}
