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
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/baselines"
	"repro/internal/isa"
)

const nWay = 8

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	s, err := repro.NewSession()
	if err != nil {
		return err
	}
	h, err := s.NewHarness(repro.HashJoin{
		BuildRows: 8192, Buckets: 4096, Probes: 400, MatchFraction: 0.7, Instances: nWay,
	})
	if err != nil {
		return err
	}

	// Manual annotation: every load, full saves, no scavenger yields.
	manualProg, oldToNew, err := baselines.AnnotateAllLoads(h.Sc.Prog)
	if err != nil {
		return err
	}
	// Profile-guided.
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		return err
	}
	img, err := h.Instrument(prof, repro.DefaultPipelineOptions())
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "hash-join probe: 8192-row build side, 400 probes × 8 coroutines")
	fmt.Fprintf(w, "%-18s %14s %12s %10s %8s\n", "variant", "cycles", "efficiency", "speedup", "yields")
	var base uint64 // the baseline's cycles: its row comes first
	for _, v := range []struct {
		name   string
		img    *repro.Image
		yields int
	}{
		{"baseline", h.Baseline(), 0},
		{"manual (CoroBase)", h.FromRewrite(manualProg, oldToNew), countYields(manualProg)},
		{"profile-guided", img, img.Pipe.Primary.Yields},
	} {
		st, err := h.RunSymmetric(v.img, "hashjoin", nWay, repro.ExecConfig{})
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if base == 0 {
			base = st.Cycles
		}
		fmt.Fprintf(w, "%-18s %14d %11.1f%% %9.2fx %8d\n",
			v.name, st.Cycles, st.Efficiency()*100, float64(base)/float64(st.Cycles), v.yields)
	}

	fmt.Fprintln(w, "\nper-site decisions made by the pipeline (no source access):")
	for _, s := range img.Pipe.Primary.Sites {
		fmt.Fprintf(w, "  load pc=%-4d est. miss rate %.2f  modelled gain %+6.1f cyc  live mask %v\n",
			s.OldPC, s.MissRate, s.Gain, s.Mask)
	}
	return nil
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
