// Command shprof runs a workload on the simulated machine under the
// PEBS/LBR sampler — the paper's §3.2 step (i), "running the original
// code in production and collecting statistics" — and writes the
// aggregated profile as JSON.
//
// Usage:
//
//	shprof -workload hashjoin -instances 8 -o hashjoin.profile.json
//
// The companion tools rebuild the identical scenario from the same
// (workload, instances, seed), so the profile's PCs stay valid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/pebs"
)

func main() {
	fs := flag.NewFlagSet("shprof", flag.ExitOnError)
	cli.InstallUsage(fs)
	var wf cli.WorkloadFlags
	wf.Register(fs)
	out := fs.String("o", "", "output profile path (default: <workload>.profile.json)")
	periodScale := fs.Uint64("period-scale", 1, "multiply all sampling periods (sparser sampling)")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	if err := run(&wf, *out, *periodScale); err != nil {
		fmt.Fprintln(os.Stderr, "shprof:", err)
		os.Exit(1)
	}
}

func run(wf *cli.WorkloadFlags, out string, periodScale uint64) error {
	if periodScale == 0 {
		periodScale = 1
	}
	h, part, err := wf.Harness()
	if err != nil {
		return err
	}
	cfg := h.Mach.Sampling
	for e := 0; e < pebs.NumEvents; e++ {
		cfg.Periods[e] *= periodScale
	}
	prof, sampler, core, err := h.ProfileParts(cfg, part)
	if err != nil {
		return err
	}

	if out == "" {
		out = wf.Workload + ".profile.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(prof); err != nil {
		return err
	}

	fmt.Printf("profiled %s (%d instances, seed %d)\n", wf.Workload, wf.Instances, wf.Seed)
	fmt.Printf("  run:      %d instructions, %d cycles (%.0f µs simulated)\n",
		core.Counters.TotalRetired, core.Now, float64(core.Now)/3000)
	fmt.Printf("  stalls:   %.1f%% of cycles\n", core.Counters.StallFraction()*100)
	fmt.Printf("  samples:  %d (%d dropped), modelled overhead %.3f%%\n",
		len(sampler.Samples), sampler.Dropped,
		100*float64(sampler.OverheadCycles())/float64(core.Now))
	fmt.Printf("  sites:    %d sampled loads, %d LBR edges, %d block latencies\n",
		len(prof.Sites), len(prof.Edges), len(prof.Blocks))
	hot := prof.HotLoads()
	if len(hot) > 5 {
		hot = hot[:5]
	}
	fmt.Printf("  hottest loads by estimated stall: %v\n", hot)
	fmt.Printf("  wrote %s\n", out)
	return nil
}
