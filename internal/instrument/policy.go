package instrument

import (
	"fmt"

	"repro/internal/mem"
)

// Site carries the per-load statistics a policy decides on. All
// quantities are profile estimates.
type Site struct {
	PC int
	// MissRate is the estimated probability of missing L2.
	MissRate float64
	// DRAMFraction is the estimated share of those misses served by DRAM.
	DRAMFraction float64
	// Execs estimates how often the load retires.
	Execs float64
	// StallCycles estimates total exposed stall attributed to the load.
	StallCycles float64
	// ExpectedMissLat is the latency of a miss in cycles, blended from
	// DRAMFraction over the machine's L3/DRAM latencies.
	ExpectedMissLat float64
	// SwitchCost is the modelled cost of one yield round trip (switch out
	// plus eventual switch back) in cycles.
	SwitchCost float64
	// Absorb is the pipeline-absorbable latency (no gain below it).
	Absorb float64
}

// Gain returns the modelled expected benefit of instrumenting the site,
// in cycles per execution: hidden stall on a miss, minus wasted switch
// overhead on a hit. This is the paper's §3.2 quantitative gain/cost
// model.
func (s Site) Gain() float64 {
	hidden := s.ExpectedMissLat - s.Absorb
	if hidden < 0 {
		hidden = 0
	}
	// On a miss we still pay the switch, but it runs concurrently with
	// the fill; the exposed cost is bounded by the switch overhead beyond
	// the fill (negligible here). On a hit the full round trip is wasted.
	return s.MissRate*(hidden-s.SwitchCost) - (1-s.MissRate)*s.SwitchCost
}

// Policy decides whether to instrument a load site.
type Policy interface {
	// Decide reports whether to place a prefetch+yield at the site.
	Decide(Site) bool
	// Name identifies the policy in reports.
	Name() string
}

// ThresholdPolicy instruments every load whose estimated miss rate is at
// least MinMissRate — the paper's "simple policy".
type ThresholdPolicy struct {
	MinMissRate float64
}

// Decide implements Policy.
func (p ThresholdPolicy) Decide(s Site) bool { return s.MissRate >= p.MinMissRate }

// Name implements Policy.
func (p ThresholdPolicy) Name() string { return fmt.Sprintf("threshold(%.2f)", p.MinMissRate) }

// CostBenefitPolicy instruments a load when the modelled expected gain
// exceeds MinGain cycles per execution.
type CostBenefitPolicy struct {
	MinGain float64
}

// Decide implements Policy.
func (p CostBenefitPolicy) Decide(s Site) bool { return s.Gain() > p.MinGain }

// Name implements Policy.
func (p CostBenefitPolicy) Name() string { return fmt.Sprintf("costbenefit(%.1f)", p.MinGain) }

// TopKPolicy instruments the K sites with the highest estimated total
// stall contribution. It needs the candidate set up front, so it is
// constructed via NewTopKPolicy.
type TopKPolicy struct {
	K      int
	chosen map[int]bool
}

// NewTopKPolicy selects the K heaviest stall contributors among sites.
func NewTopKPolicy(k int, sites []Site) *TopKPolicy {
	idx := make([]int, len(sites))
	for i := range sites {
		idx[i] = i
	}
	// Selection by stall contribution, heaviest first.
	for i := 0; i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if sites[idx[j]].StallCycles > sites[idx[best]].StallCycles {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	p := &TopKPolicy{K: k, chosen: map[int]bool{}}
	for i := 0; i < k && i < len(idx); i++ {
		if sites[idx[i]].StallCycles > 0 {
			p.chosen[sites[idx[i]].PC] = true
		}
	}
	return p
}

// Decide implements Policy.
func (p *TopKPolicy) Decide(s Site) bool { return p.chosen[s.PC] }

// Name implements Policy.
func (p *TopKPolicy) Name() string { return fmt.Sprintf("top%d", p.K) }

// NeverPolicy instruments nothing (baseline plumbing).
type NeverPolicy struct{}

// Decide implements Policy.
func (NeverPolicy) Decide(Site) bool { return false }

// Name implements Policy.
func (NeverPolicy) Name() string { return "never" }

// AlwaysPolicy instruments every sampled load (the paper's "aggressive"
// end of the trade-off).
type AlwaysPolicy struct{}

// Decide implements Policy.
func (AlwaysPolicy) Decide(s Site) bool { return s.Execs > 0 }

// Name implements Policy.
func (AlwaysPolicy) Name() string { return "always" }

// blendedMissLatency computes the expected miss service latency for a
// site given the machine's cache latencies.
func blendedMissLatency(dramFraction float64, m mem.Config) float64 {
	return dramFraction*float64(m.LatDRAM) + (1-dramFraction)*float64(m.LatL3)
}
