// Package profile turns raw PEBS samples and LBR aggregates into the
// per-instruction statistics that drive yield instrumentation.
//
// A profile is an *estimate*: every quantity here is reconstructed from
// sparse samples (sample count × sampling period), exactly as a
// production AutoFDO/BOLT-style pipeline would reconstruct behaviour from
// perf data. Ground-truth counters exist in internal/cpu for validation
// but are never consumed here.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/pebs"
)

// LoadSite summarizes one static load instruction.
type LoadSite struct {
	PC int `json:"pc"`
	// Execs estimates how many times the load retired.
	Execs float64 `json:"execs"`
	// L2Misses and L3Misses estimate how many executions missed L2 (i.e.
	// were served by L3 or DRAM) and L3 (served by DRAM).
	L2Misses float64 `json:"l2_misses"`
	L3Misses float64 `json:"l3_misses"`
	// StallCycles estimates the exposed stall cycles attributed to this
	// load.
	StallCycles float64 `json:"stall_cycles"`
}

// MissRate returns the estimated probability that the load misses L2,
// clamped to [0,1]. Loads with no retire samples report a rate of 0 even
// if miss samples exist (the denominator is unknown); ColdMissRate covers
// that case.
func (s *LoadSite) MissRate() float64 {
	if s.Execs <= 0 {
		return 0
	}
	r := s.L2Misses / s.Execs
	if r > 1 {
		r = 1
	}
	return r
}

// DRAMFraction estimates what fraction of L2 misses went all the way to
// DRAM (used to pick the expected miss latency).
func (s *LoadSite) DRAMFraction() float64 {
	if s.L2Misses <= 0 {
		return 0
	}
	f := s.L3Misses / s.L2Misses
	if f > 1 {
		f = 1
	}
	return f
}

// EdgeCount is one observed CFG edge with its traversal estimate.
type EdgeCount struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Count uint64 `json:"count"`
}

// BlockLatency is the observed mean latency of the straight-line region
// entered at StartPC, from LBR cycle deltas.
type BlockLatency struct {
	StartPC   int     `json:"start_pc"`
	AvgCycles float64 `json:"avg_cycles"`
	Samples   uint64  `json:"samples"`
}

// Profile is the aggregated result of one profiling run.
type Profile struct {
	ProgramLen int            `json:"program_len"`
	Sites      []LoadSite     `json:"sites"`
	Edges      []EdgeCount    `json:"edges"`
	Blocks     []BlockLatency `json:"blocks"`
	// TotalStallCycles is the estimated program-wide exposed stall total.
	TotalStallCycles float64 `json:"total_stall_cycles"`
	// TotalSamples counts raw samples aggregated into this profile.
	TotalSamples int `json:"total_samples"`

	siteIdx map[int]int // lazy PC -> Sites index
}

// Build aggregates sampler output into a profile for a program of
// programLen instructions. Samples attributed outside the program (e.g.
// skid past the end) are ignored.
func Build(programLen int, samples []pebs.Sample, lbr *pebs.LBRStats) *Profile {
	p := &Profile{ProgramLen: programLen, TotalSamples: len(samples)}
	sites := map[int]*LoadSite{}
	site := func(pc int) *LoadSite {
		s, ok := sites[pc]
		if !ok {
			s = &LoadSite{PC: pc}
			sites[pc] = s
		}
		return s
	}
	for _, smp := range samples {
		if smp.PC < 0 || smp.PC >= programLen {
			continue
		}
		w := float64(smp.Weight)
		switch smp.Event {
		case pebs.EvLoadRetired, pebs.EvAccWaitRetired, pebs.EvStoreRetired:
			site(smp.PC).Execs += w
		case pebs.EvLoadL2Miss, pebs.EvStoreL2Miss:
			site(smp.PC).L2Misses += w
		case pebs.EvLoadL3Miss, pebs.EvStoreL3Miss:
			site(smp.PC).L3Misses += w
		case pebs.EvStallCycle:
			site(smp.PC).StallCycles += w
			p.TotalStallCycles += w
		}
	}
	for _, s := range sites {
		p.Sites = append(p.Sites, *s)
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].PC < p.Sites[j].PC })

	if lbr != nil {
		for e, n := range lbr.Edges {
			p.Edges = append(p.Edges, EdgeCount{From: e.From, To: e.To, Count: n})
		}
		sort.Slice(p.Edges, func(i, j int) bool {
			if p.Edges[i].From != p.Edges[j].From {
				return p.Edges[i].From < p.Edges[j].From
			}
			return p.Edges[i].To < p.Edges[j].To
		})
		for pc, n := range lbr.BlockCycleCount {
			if n == 0 {
				continue
			}
			p.Blocks = append(p.Blocks, BlockLatency{
				StartPC:   pc,
				AvgCycles: float64(lbr.BlockCycleSum[pc]) / float64(n),
				Samples:   n,
			})
		}
		sort.Slice(p.Blocks, func(i, j int) bool { return p.Blocks[i].StartPC < p.Blocks[j].StartPC })
	}
	return p
}

// Site returns the load-site record for pc, or nil if none was sampled.
func (p *Profile) Site(pc int) *LoadSite {
	if p.siteIdx == nil {
		p.siteIdx = make(map[int]int, len(p.Sites))
		for i := range p.Sites {
			p.siteIdx[p.Sites[i].PC] = i
		}
	}
	i, ok := p.siteIdx[pc]
	if !ok {
		return nil
	}
	return &p.Sites[i]
}

// HotLoads returns the PCs of sampled loads ordered by estimated stall
// contribution, heaviest first.
func (p *Profile) HotLoads() []int {
	idx := make([]int, len(p.Sites))
	for i := range p.Sites {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return p.Sites[idx[a]].StallCycles > p.Sites[idx[b]].StallCycles
	})
	pcs := make([]int, len(idx))
	for i, j := range idx {
		pcs[i] = p.Sites[j].PC
	}
	return pcs
}

// Merge combines another profile of the same program into p (e.g. profiles
// from multiple production shards). Estimates are additive; block
// latencies are sample-weighted means.
func (p *Profile) Merge(q *Profile) error {
	if q.ProgramLen != p.ProgramLen {
		return fmt.Errorf("profile: merging profiles of different programs (%d vs %d instructions)", p.ProgramLen, q.ProgramLen)
	}
	bySite := map[int]*LoadSite{}
	for i := range p.Sites {
		bySite[p.Sites[i].PC] = &p.Sites[i]
	}
	for _, s := range q.Sites {
		if dst, ok := bySite[s.PC]; ok {
			dst.Execs += s.Execs
			dst.L2Misses += s.L2Misses
			dst.L3Misses += s.L3Misses
			dst.StallCycles += s.StallCycles
		} else {
			p.Sites = append(p.Sites, s)
		}
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].PC < p.Sites[j].PC })
	p.siteIdx = nil

	byEdge := map[[2]int]*EdgeCount{}
	for i := range p.Edges {
		byEdge[[2]int{p.Edges[i].From, p.Edges[i].To}] = &p.Edges[i]
	}
	for _, e := range q.Edges {
		if dst, ok := byEdge[[2]int{e.From, e.To}]; ok {
			dst.Count += e.Count
		} else {
			p.Edges = append(p.Edges, e)
		}
	}
	byBlock := map[int]*BlockLatency{}
	for i := range p.Blocks {
		byBlock[p.Blocks[i].StartPC] = &p.Blocks[i]
	}
	for _, b := range q.Blocks {
		if dst, ok := byBlock[b.StartPC]; ok {
			total := dst.Samples + b.Samples
			if total > 0 {
				dst.AvgCycles = (dst.AvgCycles*float64(dst.Samples) + b.AvgCycles*float64(b.Samples)) / float64(total)
			}
			dst.Samples = total
		} else {
			p.Blocks = append(p.Blocks, b)
		}
	}
	p.TotalStallCycles += q.TotalStallCycles
	p.TotalSamples += q.TotalSamples
	return nil
}

// BlockLatencyAt returns the LBR-observed latency of the region entered at
// pc, if any.
func (p *Profile) BlockLatencyAt(pc int) (float64, bool) {
	for i := range p.Blocks {
		if p.Blocks[i].StartPC == pc {
			return p.Blocks[i].AvgCycles, true
		}
	}
	return 0, false
}

// profileJSON is Profile without its methods, so UnmarshalJSON can
// decode the exported fields without recursing.
type profileJSON Profile

// UnmarshalJSON implements json.Unmarshaler: it decodes the exported
// fields and drops the lazy site index, which a decode into a used
// Profile would otherwise leave stale.
func (p *Profile) UnmarshalJSON(data []byte) error {
	p.siteIdx = nil
	return json.Unmarshal(data, (*profileJSON)(p))
}
