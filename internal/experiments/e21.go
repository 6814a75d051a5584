package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/stats"
)

// E21 sweep shape: offered loads spanning under- to over-saturation of
// one core serving the default memory-bound request mix, core counts
// doubling 1 → 4, and enough requests that the p99 rank sits well
// inside the sample.
var (
	e21Rates = []float64{1, 4, 8}
	e21Cores = []int{1, 2, 4}
)

const e21Requests = 800

// E21OpenLoopScaling reproduces the open-loop tail-latency scaling
// claim on the many-core machine: one Poisson arrival stream per cell,
// load-balanced by the deterministic quantum dispatcher across 1, 2 and
// 4 per-core policy engines sharing an LLC. The table reads as p99
// sojourn (µs) vs offered load, one column per core count: for the
// event-aware policy, added cores must push the saturation knee right —
// p99 at a fixed offered load improves monotonically with cores. The
// class-blind agnostic baseline rides along to show software
// event-awareness still matters once a load balancer is in front.
func E21OpenLoopScaling(mach Machine) (*Result, error) {
	res := newResult("E21", "open-loop serving across cores: p99 sojourn vs offered load per core count")
	for _, pol := range []service.Policy{service.Agnostic, service.EventAware} {
		headers := []string{"rate_per_us"}
		for _, n := range e21Cores {
			headers = append(headers, fmt.Sprintf("p99_us_%dc", n))
		}
		t := stats.NewTable(
			fmt.Sprintf("E21: %s p99 sojourn (µs) vs offered load, by core count", pol),
			headers...)
		for _, rate := range e21Rates {
			row := []interface{}{rate}
			for _, n := range e21Cores {
				cfg, err := service.Config{
					Requests: e21Requests,
					Rates:    []float64{rate},
					Policies: []service.Policy{pol},
					Topology: machine.Topology{Cores: n},
				}.Normalized()
				if err != nil {
					return nil, err
				}
				cs, err := service.RunCell(mach, cfg, service.Cell{Policy: pol, Rate: rate})
				if err != nil {
					return nil, err
				}
				row = append(row, cs.P99Micros())
				prefix := fmt.Sprintf("e21.%s.rate%g.cores%d.", pol, rate, n)
				res.Metrics[prefix+"p99_us"] = cs.P99Micros()
				res.Metrics[prefix+"completed"] = float64(cs.Completed)
				res.Metrics[prefix+"dropped"] = float64(cs.Dropped)
			}
			t.Row(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	res.Notes = append(res.Notes,
		"each cell is one arrival stream load-balanced at quantum barriers across per-core policy engines sharing an LLC",
		"event-aware p99 at a fixed offered load improves monotonically as cores double 1 -> 4")
	return res, nil
}
