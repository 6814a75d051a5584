// Package service is the open-loop load harness: a seeded arrival
// process offers requests at a configured rate in *simulated* cycles, a
// bounded admission queue absorbs (or drops) them, and a policy engine
// serves them on the simulated core while background batch work soaks up
// miss shadows and idle cycles. Because requests arrive on the simulated
// clock rather than when the previous one finishes, queueing delay is
// part of every latency sample — this is what makes tail percentiles
// (p99/p999) meaningful, unlike the closed-loop experiment harness where
// a slow request simply delays its successor.
//
// Everything is deterministic: arrivals come from a private splitmix64
// stream, each (policy, rate) cell is a pure single-threaded function of
// the machine and configuration, and sweeps fan cells through the runner
// without sharing any simulator state, so reports are byte-identical
// across GOMAXPROCS settings and repeated runs. Each cell keeps its own
// request ledger; an observed sweep runs its cells one at a time, and
// each folds its ledger into the one registry at cell end.
package service

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// CyclesPerMicro converts the harness's rate unit — requests per
// simulated microsecond — into cycles (the 3 GHz core retires 3000
// cycles per µs).
const CyclesPerMicro = 1000 * core.CyclesPerNS

// Kind selects the arrival process.
type Kind uint8

// Arrival processes.
const (
	// Poisson draws i.i.d. exponential inter-arrival gaps — the
	// standard open-loop model for independent datacenter clients.
	Poisson Kind = iota
	// Uniform spaces arrivals exactly 1/Rate apart: a pessimal-free
	// baseline that isolates service-time variance from arrival
	// variance.
	Uniform
	// Bursty clusters arrivals into back-to-back bursts of geometric
	// mean size Burst, with exponential gaps between bursts sized to
	// preserve the overall rate. Bursts are what stress the admission
	// queue and expose drop/shed behavior.
	Bursty
)

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Uniform:
		return "uniform"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses an arrival-process name as printed by Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "uniform":
		return Uniform, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("service: unknown arrival kind %q (want poisson, uniform or bursty)", s)
}

// ArrivalSpec describes the offered load.
//
// The arrival clock must stay inside 2^63 cycles for a whole cell, so
// Config.Validate refuses a rate too low for its request count: n
// arrivals must satisfy n · (CyclesPerMicro/Rate) · g < 2^63, where g
// bounds one gap in mean gaps — 1 for Uniform, the largest exponential
// draw −ln 2^-54 ≈ 37.4 for Poisson, and Burst times that for Bursty
// (every arrival may open a burst).
type ArrivalSpec struct {
	// Kind is the arrival process.
	Kind Kind
	// Rate is the offered load in requests per simulated microsecond;
	// the mean inter-arrival gap is CyclesPerMicro/Rate cycles.
	Rate float64
	// Burst is the mean burst size for Bursty arrivals (finite and ≥ 1;
	// ignored otherwise, and zeroed by normalization, but never NaN or
	// infinite).
	Burst float64
}

// maxExpDraw is the largest unit exponential Arrivals.exp can draw:
// −ln of splitmix.float's smallest value, 2^-54.
const maxExpDraw = 54 * math.Ln2

func (s ArrivalSpec) validate() error {
	switch s.Kind {
	case Poisson, Uniform, Bursty:
	default:
		return fmt.Errorf("service: unknown arrival kind %d", uint8(s.Kind))
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("service: arrival rate %v must be a positive finite rate (requests/µs)", s.Rate)
	}
	if math.IsNaN(s.Burst) || math.IsInf(s.Burst, 0) || s.Kind == Bursty && s.Burst < 1 {
		return fmt.Errorf("service: burst size %v must be finite and ≥ 1", s.Burst)
	}
	return nil
}

// maxClock bounds the cycle at which the n-th arrival can fall (see
// ArrivalSpec).
func (s ArrivalSpec) maxClock(n int) float64 {
	gap := CyclesPerMicro / s.Rate
	switch s.Kind {
	case Poisson:
		gap *= maxExpDraw
	case Bursty:
		gap *= maxExpDraw * s.Burst
	}
	return float64(n) * gap
}

// splitmix is a private splitmix64 stream: the cycle-domain determinism
// rules (tools/analyzers/detflow) forbid the global math/rand source, and
// owning the generator pins the arrival sequence to the seed forever.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in the open interval (0, 1); the +0.5
// offset keeps log() finite.
func (r *splitmix) float() float64 {
	return (float64(r.next()>>11) + 0.5) / (1 << 53)
}

// Arrivals generates the seeded arrival sequence: Next returns absolute
// arrival times in simulated cycles, strictly from the seed, one draw
// stream per generator. Time accumulates in float64 and truncates per
// arrival, so long runs hold the configured rate without rounding
// drift.
type Arrivals struct {
	spec  ArrivalSpec
	rng   splitmix
	mean  float64 // mean inter-arrival gap, cycles
	clock float64 // absolute time of the last arrival, cycles
	burst int     // arrivals remaining in the current burst
}

// NewArrivals validates the spec and seeds the generator.
func NewArrivals(spec ArrivalSpec, seed int64) (*Arrivals, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Arrivals{
		spec: spec,
		rng:  splitmix{s: uint64(seed)},
		mean: CyclesPerMicro / spec.Rate,
	}, nil
}

// Next returns the absolute simulated cycle of the next arrival. The
// sequence is non-decreasing; Bursty emits equal timestamps inside a
// burst.
func (a *Arrivals) Next() uint64 {
	switch a.spec.Kind {
	case Uniform:
		a.clock += a.mean
	case Poisson:
		a.clock += a.mean * a.exp()
	case Bursty:
		if a.burst > 0 {
			a.burst--
		} else {
			// The inter-burst gap carries the whole burst's worth of
			// spacing, so the long-run rate is preserved.
			a.clock += a.mean * a.spec.Burst * a.exp()
			a.burst = a.geom() - 1
		}
	}
	return uint64(a.clock)
}

// exp draws a unit-mean exponential.
func (a *Arrivals) exp() float64 { return -math.Log(a.rng.float()) }

// geom draws the burst size: geometric with mean Burst (success
// probability 1/Burst), minimum 1.
func (a *Arrivals) geom() int {
	b := a.spec.Burst
	if b <= 1 {
		return 1
	}
	n := 1 + int(math.Log(a.rng.float())/math.Log(1-1/b))
	if n < 1 {
		n = 1
	}
	return n
}
