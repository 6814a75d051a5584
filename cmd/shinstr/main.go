// Command shinstr performs profile-guided yield instrumentation — the
// paper's §3.2 step (ii) — on the binary of a deterministically rebuilt
// workload scenario, and writes the rewritten image.
//
// Usage:
//
//	shinstr -workload hashjoin -profile hashjoin.profile.json \
//	        -policy costbenefit -o hashjoin.instrumented.img
//
// The report lists every instrumented load with its estimated miss rate,
// modelled gain and live-register mask, plus the scavenger-phase
// conditional yields.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/profile"
)

func main() {
	fs := flag.NewFlagSet("shinstr", flag.ExitOnError)
	cli.InstallUsage(fs)
	var wf cli.WorkloadFlags
	wf.Register(fs)
	profPath := fs.String("profile", "", "input profile JSON (required)")
	out := fs.String("o", "", "output image path (default: <workload>.instrumented.img)")
	policyName := fs.String("policy", "costbenefit", "threshold | costbenefit | topk | always | never")
	theta := fs.Float64("theta", 0.5, "miss-rate bound for -policy threshold")
	topK := fs.Int("k", 8, "site count for -policy topk")
	coalesce := fs.Bool("coalesce", true, "coalesce yields across independent adjacent loads")
	liveMasks := fs.Bool("livemasks", true, "save only live registers at yields")
	interval := fs.Uint64("interval", 300, "scavenger inter-yield interval in cycles (0 disables the phase)")
	report := fs.String("report", "", "write the old-to-new mapping report JSON here (shcheck -map input)")
	origOut := fs.String("origout", "", "also write the uninstrumented scenario image here (shcheck -orig input)")
	verify := fs.Bool("verify", true, "statically verify the rewritten image before writing it")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	if err := run(&wf, *profPath, *out, *policyName, *theta, *topK, *coalesce, *liveMasks, *interval, *report, *origOut, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "shinstr:", err)
		os.Exit(1)
	}
}

func run(wf *cli.WorkloadFlags, profPath, out, policyName string, theta float64, topK int,
	coalesce, liveMasks bool, interval uint64, report, origOut string, verify bool) error {
	if profPath == "" {
		return fmt.Errorf("-profile is required (produce one with shprof)")
	}
	h, _, err := wf.Harness()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	var prof profile.Profile
	if err := json.Unmarshal(data, &prof); err != nil {
		return fmt.Errorf("parsing %s: %w", profPath, err)
	}
	if prof.ProgramLen != len(h.Sc.Prog.Instrs) {
		return fmt.Errorf("profile covers a %d-instruction binary but the scenario has %d — workload/instances/seed must match shprof",
			prof.ProgramLen, len(h.Sc.Prog.Instrs))
	}

	opts := instrument.DefaultPipelineOptions()
	opts.Primary.Machine = h.Mach.Mem
	opts.Primary.CPU = h.Mach.CPU
	opts.Primary.Switch = h.Mach.Switch
	opts.Primary.Coalesce = coalesce
	opts.Primary.LiveMasks = liveMasks
	switch policyName {
	case "threshold":
		opts.Primary.Policy = instrument.ThresholdPolicy{MinMissRate: theta}
	case "costbenefit":
		opts.Primary.Policy = instrument.CostBenefitPolicy{}
	case "topk":
		opts.Primary.Policy = instrument.NewTopKPolicy(topK, instrument.BuildSites(h.Sc.Prog, &prof, opts.Primary))
	case "always":
		opts.Primary.Policy = instrument.AlwaysPolicy{}
	case "never":
		opts.Primary.Policy = instrument.NeverPolicy{}
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	if interval == 0 {
		opts.Scavenger = nil
	} else {
		opts.Scavenger.TargetInterval = interval
		opts.Scavenger.Machine = h.Mach.Mem
		opts.Scavenger.CPU = h.Mach.CPU
		opts.Scavenger.LiveMasks = liveMasks
	}

	img, res, err := instrument.InstrumentImage(isa.Encode(h.Sc.Prog), &prof, opts)
	if err != nil {
		return err
	}

	// The rewritten entry points root shcheck's reachability analyses.
	var entries []int
	for _, p := range h.Sc.Parts {
		entries = append(entries, res.OldToNew[p.Entry])
	}

	if verify {
		rep, err := check.Image(isa.Encode(h.Sc.Prog), img, res.OldToNew, check.Options{Entries: entries})
		if err != nil {
			return err
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("refusing to write unsound image: %w", err)
		}
	}

	if report != "" {
		f, err := os.Create(report)
		if err != nil {
			return err
		}
		m := check.MapFile{OldToNew: res.OldToNew, Entries: entries}
		if err := m.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if origOut != "" {
		f, err := os.Create(origOut)
		if err != nil {
			return err
		}
		if err := isa.SaveImage(f, isa.Encode(h.Sc.Prog)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if out == "" {
		out = wf.Workload + ".instrumented.img"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := isa.SaveImage(f, img); err != nil {
		return err
	}

	fmt.Printf("instrumented %s binary: %d -> %d instructions (policy %s)\n",
		wf.Workload, len(h.Sc.Prog.Instrs), img.Len(), res.Primary.PolicyName)
	fmt.Printf("  primary phase: %d candidate loads, %d yields, %d prefetches\n",
		res.Primary.Candidates, res.Primary.Yields, res.Primary.Prefetches)
	for _, s := range res.Primary.Sites {
		fmt.Printf("    load pc=%-5d miss=%.2f gain=%+.1f mask=%v", s.OldPC, s.MissRate, s.Gain, s.Mask)
		if s.RunLen > 1 {
			fmt.Printf(" (coalesced x%d)", s.RunLen)
		}
		fmt.Println()
	}
	if res.Scavenger != nil {
		fmt.Printf("  scavenger phase: %d conditional yields (%d loop guarantees, %d spacing)\n",
			len(res.Scavenger.CondYieldPCs), res.Scavenger.LoopYields, res.Scavenger.SpacingYields)
	}
	if verify {
		fmt.Printf("  verified: %d instructions clean (shcheck)\n", img.Len())
	}
	if report != "" {
		fmt.Printf("  wrote mapping report %s\n", report)
	}
	if origOut != "" {
		fmt.Printf("  wrote original image %s\n", origOut)
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}
