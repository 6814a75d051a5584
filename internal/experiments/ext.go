package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/bincfg"
	"repro/internal/coro"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// E11HWAssist reproduces §4.1: with a cache-presence probe, yields become
// conditional on the event actually happening, eliminating the wasted
// switches that static instrumentation pays on cache hits. Binary search
// is the mixed-locality stressor: upper levels hit, leaves miss, and the
// aggressive policy instruments everything.
func E11HWAssist(mach Machine) (*Result, error) {
	res := newResult("E11", "hardware-assisted conditional yields (§4.1)")
	tbl := stats.NewTable("aggressively instrumented binary search, dual-mode",
		"variant", "primary_cycles", "episodes", "hw_skips", "efficiency")
	res.Tables = append(res.Tables, tbl)

	h, err := NewHarness(mach,
		workloads.BinarySearch{N: 131072, Lookups: 400, Instances: 1},
		workloads.Compute{Iters: 100_000_000, Instances: 2},
	)
	if err != nil {
		return nil, err
	}
	prof, _, err := h.Profile("binsearch")
	if err != nil {
		return nil, err
	}
	opts := pipelineOptsFor(mach)
	opts.Primary.Policy = instrument.AlwaysPolicy{}
	img, err := h.Instrument(prof, opts)
	if err != nil {
		return nil, err
	}

	for _, hw := range []bool{false, true} {
		pts, err := h.Tasks(img, "binsearch", coro.Primary, 1)
		if err != nil {
			return nil, err
		}
		sts, err := h.Tasks(img, "compute", coro.Scavenger, 2)
		if err != nil {
			return nil, err
		}
		cfg := exec.Config{HWAssist: hw, HWAssistProbeCost: 2}
		st, err := h.NewExecutor(img, cfg).RunDualMode(pts.Tasks[0], sts.Tasks)
		if err != nil {
			return nil, err
		}
		if err := pts.Validate(); err != nil {
			return nil, err
		}
		name := "static yields"
		key := "static"
		if hw {
			name = "presence-conditional yields"
			key = "hw"
		}
		tbl.Row(name, st.PrimaryLatency, st.Episodes, st.HWSkips, st.Efficiency())
		res.Metrics[key+"_latency"] = float64(st.PrimaryLatency)
		res.Metrics[key+"_episodes"] = float64(st.Episodes)
		res.Metrics[key+"_skips"] = float64(st.HWSkips)
		res.Metrics[key+"_eff"] = st.Efficiency()
	}
	res.Notes = append(res.Notes,
		"the probe (2 cycles) checks L1/L2 presence of the prefetched line before committing to a switch",
		"paper §4.1: place conditional yields where events happen often but not always")
	return res, nil
}

// E12SFI reproduces the §4.2 co-design question: SFI guards and yield
// instrumentation each cost instruction slots; folding guards into the
// shadow of adjacent context switches makes the combination cheaper than
// the sum.
func E12SFI(mach Machine) (*Result, error) {
	res := newResult("E12", "SFI isolation overhead and yield co-design (§4.2)")
	tbl := stats.NewTable("hash join, 8-way symmetric",
		"variant", "checks", "folded", "cycles", "efficiency", "overhead_vs_peer")
	res.Tables = append(res.Tables, tbl)

	// Sandbox spans all of simulated memory above the null page: guards
	// execute (and cost) but never trap.
	mach.CPU.SandboxLo = 64
	mach.CPU.SandboxHi = mach.MemBytes

	const n = 8
	h, err := NewHarness(mach, workloads.HashJoin{
		BuildRows: 8192, Buckets: 4096, Probes: 300, MatchFraction: 0.7, Instances: n,
	})
	if err != nil {
		return nil, err
	}
	run := func(img *Image) (exec.Stats, error) {
		ts, err := h.Tasks(img, "hashjoin", coro.Primary, n)
		if err != nil {
			return exec.Stats{}, err
		}
		st, err := h.NewExecutor(img, exec.Config{}).RunSymmetric(ts.Tasks)
		if err != nil {
			return exec.Stats{}, err
		}
		return st, ts.Validate()
	}
	harden := func(img *Image, codesign bool) (*Image, *sfi.Result, error) {
		prog, sres, err := sfi.Harden(img.Prog, sfi.Options{CoDesign: codesign, GuardStores: true})
		if err != nil {
			return nil, nil, err
		}
		entries := map[string]int{}
		for name, e := range img.Entries {
			entries[name] = sres.OldToNew[e]
		}
		return &Image{Prog: prog, Entries: entries}, sres, nil
	}

	base := h.Baseline()
	baseStats, err := run(base)
	if err != nil {
		return nil, err
	}
	tbl.Row("baseline", 0, 0, baseStats.Cycles, baseStats.Efficiency(), "-")

	sfiImg, sfiRes, err := harden(base, false)
	if err != nil {
		return nil, err
	}
	sfiStats, err := run(sfiImg)
	if err != nil {
		return nil, err
	}
	tbl.Row("SFI only", sfiRes.Checks, 0, sfiStats.Cycles, sfiStats.Efficiency(),
		stats.Ratio(float64(sfiStats.Cycles), float64(baseStats.Cycles)))
	res.Metrics["sfi_overhead"] = float64(sfiStats.Cycles)/float64(baseStats.Cycles) - 1

	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		return nil, err
	}
	pgoImg, err := h.Instrument(prof, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	pgoStats, err := run(pgoImg)
	if err != nil {
		return nil, err
	}
	tbl.Row("yields only", 0, 0, pgoStats.Cycles, pgoStats.Efficiency(),
		stats.Ratio(float64(pgoStats.Cycles), float64(baseStats.Cycles)))

	naiveImg, naiveRes, err := harden(pgoImg, false)
	if err != nil {
		return nil, err
	}
	naiveStats, err := run(naiveImg)
	if err != nil {
		return nil, err
	}
	tbl.Row("yields + SFI (naive)", naiveRes.Checks, 0, naiveStats.Cycles, naiveStats.Efficiency(),
		stats.Ratio(float64(naiveStats.Cycles), float64(pgoStats.Cycles)))
	res.Metrics["naive_cycles"] = float64(naiveStats.Cycles)

	coImg, coRes, err := harden(pgoImg, true)
	if err != nil {
		return nil, err
	}
	coStats, err := run(coImg)
	if err != nil {
		return nil, err
	}
	tbl.Row("yields + SFI (co-designed)", coRes.Checks, coRes.Folded, coStats.Cycles, coStats.Efficiency(),
		stats.Ratio(float64(coStats.Cycles), float64(pgoStats.Cycles)))
	res.Metrics["codesign_cycles"] = float64(coStats.Cycles)
	res.Metrics["codesign_folded"] = float64(coRes.Folded)
	res.Metrics["pgo_eff"] = pgoStats.Efficiency()
	res.Metrics["naive_eff"] = naiveStats.Efficiency()
	res.Metrics["codesign_eff"] = coStats.Efficiency()

	res.Notes = append(res.Notes,
		"co-design folds the guard of an instrumented load into the adjacent switch's shadow",
		"paper §4.2: can a co-design of SFI and event hiding reduce SFI's runtime overhead?")
	return res, nil
}

// inlineChase is the E13 workload: the same lookup-loop "function" is
// inlined at two sites — site A chases a DRAM-resident chain, site B a
// cache-resident one. Only site A deserves instrumentation, and only a
// binary-level pipeline can tell the two inlined copies apart (§3.2's
// inlining argument).
type inlineChase struct {
	BigNodes, SmallNodes, HopsA, HopsB, Instances int
}

// Name implements workloads.Spec.
func (inlineChase) Name() string { return "inline" }

const inlineChaseAsm = `
main:
loop_a:
    load r1, [r1]        ; inlined copy A: hot chain
    addi r3, r3, -1
    cmpi r3, 0
    jgt  loop_a
loop_b:
    load r2, [r2]        ; inlined copy B: cache-resident chain
    addi r4, r4, -1
    cmpi r4, 0
    jgt  loop_b
    add  r1, r1, r2
    halt
`

// Build implements workloads.Spec.
func (w inlineChase) Build(m *mem.Memory, rng *rand.Rand) (*workloads.Built, error) {
	if w.BigNodes < 2 || w.SmallNodes < 2 || w.HopsA < 1 || w.HopsB < 1 || w.Instances < 1 {
		return nil, fmt.Errorf("inline chase: bad config")
	}
	b := &workloads.Built{Prog: isa.MustAssemble(inlineChaseAsm)}
	mkChain := func(n int) uint64 {
		base := m.Alloc(uint64(n)*64, 64)
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			from := base + uint64(perm[i])*64
			to := base + uint64(perm[(i+1)%n])*64
			m.MustWrite64(from, to)
		}
		return base + uint64(perm[0])*64
	}
	for inst := 0; inst < w.Instances; inst++ {
		headA := mkChain(w.BigNodes)
		headB := mkChain(w.SmallNodes)
		// Host reference walk, over the nodes just written.
		curA, curB := headA, headB
		for i := 0; i < w.HopsA; i++ {
			curA = m.MustRead64(curA)
		}
		for i := 0; i < w.HopsB; i++ {
			curB = m.MustRead64(curB)
		}
		var in workloads.Instance
		in.Regs[1] = headA
		in.Regs[2] = headB
		in.Regs[3] = uint64(w.HopsA)
		in.Regs[4] = uint64(w.HopsB)
		in.Expected = curA + curB
		b.Instances = append(b.Instances, in)
	}
	return b, nil
}

// E13InlineAccuracy reproduces the §3.2 binary-level-accuracy argument: a
// function inlined at several sites needs instrumentation at only some of
// them, and profile data maps back to the binary exactly, whereas a
// source-level decision is forced to treat all inline sites alike.
func E13InlineAccuracy(mach Machine) (*Result, error) {
	res := newResult("E13", "binary-level vs source-level instrumentation accuracy (§3.2)")
	tbl := stats.NewTable("inlined lookup loop: hot site A, cache-resident site B (8-way)",
		"variant", "yields", "switches", "cycles", "efficiency")
	res.Tables = append(res.Tables, tbl)

	const n = 8
	spec := inlineChase{BigNodes: 8192, SmallNodes: 32, HopsA: 1200, HopsB: 1200, Instances: n}
	h, err := NewHarness(mach, spec)
	if err != nil {
		return nil, err
	}

	run := func(img *Image) (exec.Stats, error) {
		ts, err := h.Tasks(img, "inline", coro.Primary, n)
		if err != nil {
			return exec.Stats{}, err
		}
		st, err := h.NewExecutor(img, exec.Config{}).RunSymmetric(ts.Tasks)
		if err != nil {
			return exec.Stats{}, err
		}
		return st, ts.Validate()
	}

	base := h.Baseline()
	baseStats, err := run(base)
	if err != nil {
		return nil, err
	}
	tbl.Row("baseline", 0, 0, baseStats.Cycles, baseStats.Efficiency())
	res.Metrics["base_eff"] = baseStats.Efficiency()

	// Source-level: both inline copies of the "function" get the yield.
	srcProg, oldToNew, err := baselines.AnnotateLoads(h.Sc.Prog, bincfg.LoadsIn(h.Sc.Prog))
	if err != nil {
		return nil, err
	}
	srcImg := h.FromRewrite(srcProg, oldToNew)
	srcStats, err := run(srcImg)
	if err != nil {
		return nil, err
	}
	sy, _ := yieldCount(srcProg)
	tbl.Row("source-level (both sites)", sy, srcStats.Switches, srcStats.Cycles, srcStats.Efficiency())
	res.Metrics["src_eff"] = srcStats.Efficiency()
	res.Metrics["src_switches"] = float64(srcStats.Switches)

	// Binary-level: the profile distinguishes the two copies by PC.
	prof, _, err := h.Profile("inline")
	if err != nil {
		return nil, err
	}
	img, err := h.Instrument(prof, primaryOnlyOpts(mach))
	if err != nil {
		return nil, err
	}
	binStats, err := run(img)
	if err != nil {
		return nil, err
	}
	by, _ := yieldCount(img.Prog)
	tbl.Row("binary-level (site A only)", by, binStats.Switches, binStats.Cycles, binStats.Efficiency())
	res.Metrics["bin_eff"] = binStats.Efficiency()
	res.Metrics["bin_switches"] = float64(binStats.Switches)
	res.Metrics["bin_yields"] = float64(by)
	res.Metrics["src_yields"] = float64(sy)

	res.Notes = append(res.Notes,
		"site B's loads hit after one lap of its 2 KiB chain; yielding there is pure overhead",
		"paper §3.2: profile data maps most accurately onto the representation closest to the binary")
	return res, nil
}
