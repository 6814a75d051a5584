// Command shinstr performs profile-guided yield instrumentation — the
// paper's §3.2 step (ii) — on the binary of a deterministically rebuilt
// workload scenario, verifies the rewritten image (internal/check) and
// writes it; an unsound image is refused, not written.
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
	"errors"
	"flag"
	"fmt"
	"io"
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
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	if err := run(&wf, *profPath, *out, *policyName, *theta, *topK, *coalesce, *liveMasks, *interval, *report, *origOut); err != nil {
		fmt.Fprintln(os.Stderr, "shinstr:", err)
		os.Exit(1)
	}
}

func run(wf *cli.WorkloadFlags, profPath, out, policyName string, theta float64, topK int,
	coalesce, liveMasks bool, interval uint64, report, origOut string) error {
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

	opts := h.Mach.PipelineOptions()
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
		opts.Scavenger.LiveMasks = liveMasks
	}

	inst, err := h.Instrument(&prof, opts)
	var unsound *check.ReportError
	if errors.As(err, &unsound) {
		return fmt.Errorf("refusing to write unsound image: %w", err)
	}
	if err != nil {
		return err
	}
	res := inst.Pipe

	if report != "" {
		m := check.MapFile{OldToNew: res.OldToNew}
		if err := cli.WriteFile(report, m.Save); err != nil {
			return err
		}
	}
	if origOut != "" {
		if err := cli.WriteFile(origOut, func(w io.Writer) error { return isa.SaveImage(w, h.Sc.Prog) }); err != nil {
			return err
		}
	}
	if out == "" {
		out = wf.Workload + ".instrumented.img"
	}
	if err := cli.WriteFile(out, func(w io.Writer) error { return isa.SaveImage(w, inst.Prog) }); err != nil {
		return err
	}

	fmt.Printf("instrumented %s binary: %d -> %d instructions (policy %s)\n",
		wf.Workload, len(h.Sc.Prog.Instrs), len(inst.Prog.Instrs), res.Primary.PolicyName)
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
	fmt.Printf("  verified: %d instructions clean (shcheck)\n", len(inst.Prog.Instrs))
	if report != "" {
		fmt.Printf("  wrote mapping report %s\n", report)
	}
	if origOut != "" {
		fmt.Printf("  wrote original image %s\n", origOut)
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}
