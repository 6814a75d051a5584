// Hash-join example: the database workload that motivated coroutine
// interleaving (CoroBase, Psaropoulos et al. — the paper's §2).
//
// Three builds of the same probe kernel run 8-way interleaved:
//
//   - baseline: the original binary; every bucket/chain load stalls.
//   - manual: a "developer" annotates every load by hand with
//     prefetch+yield — CoroBase-style, full register saves, and effort
//     that has to be repeated for every data structure.
//   - profile-guided: softhide's pipeline decides from PEBS samples where
//     to yield, computes live-register masks, and coalesces — no source
//     knowledge at all.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/baselines"
	"repro/internal/isa"
)

const nWay = 8

func main() {
	s, err := repro.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	h, err := s.NewHarness(repro.HashJoin{
		BuildRows: 8192, Buckets: 4096, Probes: 400, MatchFraction: 0.7, Instances: nWay,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("hash-join probe: 8192-row build side, 400 probes × 8 coroutines")
	fmt.Printf("%-18s %14s %12s %10s %8s\n", "variant", "cycles", "efficiency", "speedup", "yields")

	baseCycles := measure(h, h.Baseline(), "baseline", 0)

	// Manual annotation: every load, full saves, no scavenger yields.
	manualProg, oldToNew, err := baselines.AnnotateAllLoads(h.Sc.Prog)
	if err != nil {
		log.Fatal(err)
	}
	my := countYields(manualProg)
	measureWithBase(h, h.FromRewrite(manualProg, oldToNew), "manual (CoroBase)", my, baseCycles)

	// Profile-guided.
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		log.Fatal(err)
	}
	img, err := h.Instrument(prof, repro.DefaultPipelineOptions())
	if err != nil {
		log.Fatal(err)
	}
	measureWithBase(h, img, "profile-guided", img.Pipe.Primary.Yields, baseCycles)

	fmt.Println("\nper-site decisions made by the pipeline (no source access):")
	for _, s := range img.Pipe.Primary.Sites {
		fmt.Printf("  load pc=%-4d est. miss rate %.2f  modelled gain %+6.1f cyc  live mask %v\n",
			s.OldPC, s.MissRate, s.Gain, s.Mask)
	}
}

func measure(h *repro.Harness, img *repro.Image, name string, yields int) uint64 {
	return measureWithBase(h, img, name, yields, 0)
}

func measureWithBase(h *repro.Harness, img *repro.Image, name string, yields int, base uint64) uint64 {
	st, err := h.RunSymmetric(img, "hashjoin", nWay, repro.ExecConfig{})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	speedup := "1.00x"
	if base > 0 {
		speedup = fmt.Sprintf("%.2fx", float64(base)/float64(st.Cycles))
	}
	fmt.Printf("%-18s %14d %11.1f%% %10s %8d\n", name, st.Cycles, st.Efficiency()*100, speedup, yields)
	return st.Cycles
}

func countYields(p *repro.Program) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == isa.OpYield {
			n++
		}
	}
	return n
}
