// Latency-sensitive service example: open-loop tail latency at offered
// load (§3.3 applied at datacenter scale).
//
// A service core handles a stream of latency-critical requests
// (hash-table probes) that arrive on their own Poisson clock — the
// server cannot slow them down — while batch compute wants the leftover
// cycles. Session.Serve sweeps the serving discipline × offered-load
// grid and reports the sojourn-time distribution of every cell:
//
//   - agnostic: requests and batch work share one blind round-robin —
//     requests queue behind whole batch slices and the tail explodes.
//   - os-thread: the same discipline with kernel-priced context
//     switches — worse still.
//   - sidecar: one dedicated request lane; batch work is borrowed only
//     inside the request's miss shadows.
//   - event-aware: pending requests are co-scheduled into the oldest
//     request's miss shadows ahead of batch work — the paper's
//     asymmetric-concurrency result, now visible as a flat p99 curve.
//
// Every cell is deterministic: rerunning this program (at any
// GOMAXPROCS) reproduces the tables byte for byte.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	s, err := repro.NewSession(repro.WithParallelism(0)) // fan cells out over GOMAXPROCS
	if err != nil {
		return err
	}

	cfg := repro.ServiceConfig{
		Workload: repro.Workload{
			// One request = one batch of hash-table probes; four may be
			// in flight at once (one per worker slot).
			Request: repro.HashJoin{BuildRows: 4096, Buckets: 2048, Probes: 24,
				MatchFraction: 0.7, Instances: 4},
			// Batch analytics soak up miss shadows and idle cycles.
			Background: repro.Compute{Iters: 3000, Instances: 2},
		},
		Arrivals: repro.ArrivalSpec{Kind: repro.ArrivalPoisson},
		Rates:    []float64{0.02, 0.05, 0.1}, // requests per simulated µs
		Requests: 400,
		Workers:  4,
		Queue:    64,
		Batch:    2,
		Policies: []repro.ServicePolicy{
			repro.PolicyAgnostic,
			repro.PolicyOSThread,
			repro.PolicySidecar,
			repro.PolicyEventAware,
		},
	}

	rep, err := s.Serve(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep)

	// The headline: what the 99th-percentile request pays under each
	// discipline at the highest offered load.
	rate := cfg.Rates[len(cfg.Rates)-1]
	fmt.Fprintf(w, "at %g req/µs:\n", rate)
	for _, pol := range cfg.Policies {
		cell := rep.Cell(pol, rate)
		fmt.Fprintf(w, "  %-12s p99 %9.3f µs  (%d/%d completed, %d dropped, %d shed)\n",
			cell.Policy, cell.P99Micros(), cell.Completed, cell.Requests, cell.Dropped, cell.Shed)
	}
	fmt.Fprintln(w, "\nevent-aware keeps the tail flat by serving pending requests inside")
	fmt.Fprintln(w, "the oldest request's miss shadows, ahead of any batch work (§3.3)")
	return nil
}
