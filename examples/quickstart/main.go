// Quickstart: the complete softhide pipeline on a pointer chase, in ~40
// lines of library calls — profile in "production", instrument the binary,
// interleave coroutines, and watch the memory stalls disappear. Built on
// the Session API: the session owns the machine and execution policy,
// Pipeline runs the paper's profile→instrument steps in one call.
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
	s, err := repro.NewSession() // reference machine, sequential
	if err != nil {
		return err
	}

	// A DRAM-resident pointer chase: 8192 nodes × 64 B is 512 KiB against
	// a 256 KiB simulated LLC, and every hop depends on the previous one.
	const n = 8
	spec := repro.PointerChase{Nodes: 8192, Hops: 2000, Instances: n}

	// Baseline: run the original binary, one coroutine at a time, and eat
	// every miss. RunSymmetric validates every coroutine's result against
	// the host.
	h, err := s.NewHarness(spec)
	if err != nil {
		return err
	}
	before, err := h.RunSymmetric(h.Baseline(), "chase", n, repro.ExecConfig{})
	if err != nil {
		return err
	}

	// Steps (i)+(ii): sample-based profiling, then profile-guided binary
	// rewriting — prefetch+yield before the loads the profile says miss.
	h, img, err := s.Pipeline("chase", repro.DefaultPipelineOptions(), spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "instrumentation: %d yields, %d prefetches inserted (policy %s)\n",
		img.Pipe.Primary.Yields, img.Pipe.Primary.Prefetches, img.Pipe.Primary.PolicyName)

	// Step (iii): interleave 8 coroutines; each one's miss shadows run the
	// others' compute.
	after, err := h.RunSymmetric(img, "chase", n, repro.ExecConfig{})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-22s %14s %12s %10s\n", "", "cycles", "efficiency", "stalled")
	fmt.Fprintf(w, "%-22s %14d %11.1f%% %9.1f%%\n", "baseline", before.Cycles,
		before.Efficiency()*100, before.StallFraction()*100)
	fmt.Fprintf(w, "%-22s %14d %11.1f%% %9.1f%%\n", "profile-guided", after.Cycles,
		after.Efficiency()*100, after.StallFraction()*100)
	fmt.Fprintf(w, "\nspeedup: %.2fx — same results, zero source changes\n",
		float64(before.Cycles)/float64(after.Cycles))
	return nil
}
