// KV-store example: a single-core in-memory key-value node under mixed
// traffic, scheduled three ways (§4.2).
//
// The node serves a stream of point-lookup requests against a skip-list
// index (the latency-critical path) while background analytics scans want
// every spare cycle. The same instrumented binary runs under the three
// scheduler-integration policies from the paper's §4.2 discussion:
//
//   - agnostic: the scheduler has no idea short events exist; requests
//     round-robin with analytics at every yield.
//   - sidecar: requests run FIFO; the event-hiding executor borrows the
//     scheduler's ready analytics tasks during each request's miss
//     shadows.
//   - event-aware: the scheduler also co-schedules *pending requests*
//     into the running request's shadows before touching analytics.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

const (
	nRequests  = 8
	nAnalytics = 3
)

func main() {
	s, err := repro.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	h, err := s.NewHarness(
		repro.SkipList{Keys: 8192, Lookups: 60, Instances: nRequests},
		repro.ArrayScan{N: 32768, Instances: nAnalytics},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Profile both code paths in one "production" run and build the
	// instrumented node binary.
	prof, _, err := h.Profile("skiplist")
	if err != nil {
		log.Fatal(err)
	}
	scanProf, _, err := h.Profile("scan")
	if err != nil {
		log.Fatal(err)
	}
	if err := prof.Merge(scanProf); err != nil {
		log.Fatal(err)
	}
	img, err := h.Instrument(prof, repro.DefaultPipelineOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kv node binary: %d -> %d instructions, %d request-path yields\n\n",
		len(h.Sc.Prog.Instrs), len(img.Prog.Instrs), img.Pipe.Primary.Yields)

	fmt.Printf("%d skip-list lookup requests (60 keys each) + %d analytics scans\n\n",
		nRequests, nAnalytics)
	fmt.Printf("%-12s %14s %14s %14s %12s\n",
		"policy", "mean_latency", "p95_latency", "drain_cycles", "efficiency")

	for _, policy := range []repro.ServicePolicy{repro.PolicyAgnostic, repro.PolicySidecar, repro.PolicyEventAware} {
		reqs, err := h.Tasks(img, "skiplist", repro.Primary, nRequests)
		if err != nil {
			log.Fatal(err)
		}
		batch, err := h.Tasks(img, "scan", repro.Scavenger, nAnalytics)
		if err != nil {
			log.Fatal(err)
		}
		st, err := repro.DrainRequests(h.NewExecutor(img, repro.ExecConfig{}), policy, reqs.Tasks, batch.Tasks)
		if err != nil {
			log.Fatal(err)
		}
		if err := reqs.Validate(); err != nil {
			log.Fatalf("%v served wrong lookup results: %v", policy, err)
		}
		if err := batch.Validate(); err != nil {
			log.Fatalf("%v corrupted analytics: %v", policy, err)
		}
		var sum uint64
		lats := make([]float64, len(st.Latencies))
		for i, l := range st.Latencies {
			sum += l
			lats[i] = float64(l)
		}
		sort.Float64s(lats)
		p95 := lats[len(lats)*95/100-1]
		fmt.Printf("%-12s %14.0f %14.0f %14d %11.1f%%\n",
			policy, float64(sum)/float64(len(lats)), p95, st.Cycles, st.Efficiency()*100)
	}

	fmt.Println("\nall three policies served byte-identical results; only the scheduling")
	fmt.Println("of miss shadows differs — the paper's §4.2 integration question")
}
