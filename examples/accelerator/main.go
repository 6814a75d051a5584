// Accelerator example: hiding onboard-offload waits (§1's second event
// family — think Intel DSA/IAA engines on a server socket).
//
// The kernel submits an asynchronous 64-byte checksum operation per block,
// does a little bookkeeping, and collects the result. The wait is a
// 50–500 ns stall with nothing for the core to do — unless the pipeline
// inserts a yield between submit and collect, in which case other
// coroutines' work fills exactly that shadow. No prefetch is needed: the
// submission is already asynchronous.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Println("offload-engine stream: checksum one 64B block per item, 8-way interleaved")
	fmt.Printf("\n%-18s %12s %12s %12s %10s\n",
		"engine latency", "baseline", "instrumented", "speedup", "yields")

	ref, err := repro.NewSession()
	if err != nil {
		log.Fatal(err)
	}

	for _, latNS := range []float64{50, 150, 500} {
		topo := ref.Topology()
		topo.Machine.CPU.AccelLatency = uint64(latNS * 3) // 3 GHz: ns -> cycles
		s, err := repro.NewSession(repro.WithTopology(topo))
		if err != nil {
			log.Fatal(err)
		}
		h, err := s.NewHarness(repro.AccelStream{Blocks: 1500, Pad: 8, Instances: 8})
		if err != nil {
			log.Fatal(err)
		}

		run := func(img *repro.Image) repro.ExecStats {
			st, err := h.RunSymmetric(img, "accelstream", 8, repro.ExecConfig{})
			if err != nil {
				log.Fatal(err)
			}
			return st
		}

		base := run(h.Baseline())
		prof, _, err := h.Profile("accelstream")
		if err != nil {
			log.Fatal(err)
		}
		img, err := h.Instrument(prof, repro.DefaultPipelineOptions())
		if err != nil {
			log.Fatal(err)
		}
		pg := run(img)

		fmt.Printf("%15.0fns %11.1f%% %11.1f%% %11.2fx %10d\n",
			latNS, base.Efficiency()*100, pg.Efficiency()*100,
			float64(base.Cycles)/float64(pg.Cycles), img.Pipe.Primary.Yields)
	}

	fmt.Println("\nthe profiler attributed the stalls to the ACCWAIT site through the same")
	fmt.Println("sampled events as cache misses; one mechanism covers both event families")
}
