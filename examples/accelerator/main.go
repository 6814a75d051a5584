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
	fmt.Fprintln(w, "offload-engine stream: checksum one 64B block per item, 8-way interleaved")
	fmt.Fprintf(w, "\n%-18s %12s %12s %12s %10s\n",
		"engine latency", "baseline", "instrumented", "speedup", "yields")

	for _, latNS := range []float64{50, 150, 500} {
		topo := repro.DefaultTopology(1)
		topo.Machine.CPU.AccelLatency = uint64(latNS * 3) // 3 GHz: ns -> cycles
		s, err := repro.NewSession(repro.WithTopology(topo))
		if err != nil {
			return err
		}
		h, err := s.NewHarness(repro.AccelStream{Blocks: 1500, Pad: 8, Instances: 8})
		if err != nil {
			return err
		}

		base, err := h.RunSymmetric(h.Baseline(), "accelstream", 8, repro.ExecConfig{})
		if err != nil {
			return err
		}
		prof, _, err := h.Profile("accelstream")
		if err != nil {
			return err
		}
		img, err := h.Instrument(prof, repro.DefaultPipelineOptions())
		if err != nil {
			return err
		}
		pg, err := h.RunSymmetric(img, "accelstream", 8, repro.ExecConfig{})
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "%15.0fns %11.1f%% %11.1f%% %11.2fx %10d\n",
			latNS, base.Efficiency()*100, pg.Efficiency()*100,
			float64(base.Cycles)/float64(pg.Cycles), img.Pipe.Primary.Yields)
	}

	fmt.Fprintln(w, "\nthe profiler attributed the stalls to the ACCWAIT site through the same")
	fmt.Fprintln(w, "sampled events as cache misses; one mechanism covers both event families")
	return nil
}
