package instrument

import (
	"fmt"

	"repro/internal/bincfg"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/profile"
)

// ScavengerOptions configures the scavenger instrumentation phase (§3.3):
// conditional yields placed so that, in scavenger mode, a coroutine never
// runs much longer than TargetInterval cycles without an opportunity to
// hand the CPU back to the primary.
type ScavengerOptions struct {
	// TargetInterval is the desired inter-yield distance in cycles. The
	// paper suggests an interval "bounded but sufficient to hide L2/L3
	// cache misses (e.g., 100 ns)" — 300 cycles at 3 GHz.
	TargetInterval uint64
	// LiveMasks enables liveness-derived save masks on inserted yields.
	LiveMasks bool

	Machine mem.Config
	CPU     cpu.Config
}

// DefaultScavengerOptions returns the reference configuration: a 300-cycle
// (100 ns) target interval.
func DefaultScavengerOptions() ScavengerOptions {
	return ScavengerOptions{
		TargetInterval: 300,
		LiveMasks:      true,
		Machine:        mem.DefaultConfig(),
		CPU:            cpu.DefaultConfig(),
	}
}

// ScavengerResult reports what the scavenger phase inserted.
type ScavengerResult struct {
	// CondYieldPCs are the positions of inserted CYIELDs in the rewritten
	// program.
	CondYieldPCs []int `json:"cond_yield_pcs"`
	// LoopYields counts insertions made to guarantee that every natural
	// loop contains a yield (the static worst-case bound).
	LoopYields int `json:"loop_yields"`
	// SpacingYields counts insertions made by the profile-guided spacing
	// walk.
	SpacingYields int   `json:"spacing_yields"`
	OldToNew      []int `json:"old_to_new"`
}

// Scavenger rewrites prog (typically the output of Primary) with
// conditional yields. The profile must be expressed in prog's PCs — use
// RemapProfile after Primary.
//
// Placement follows the paper: profile-guided insertion for the common
// case (LBR-derived block latencies calibrate the static per-instruction
// estimates), augmented with a static guarantee that bounds the worst
// case — every natural loop body contains at least one yield, so no
// unbounded path avoids yielding.
func Scavenger(prog *isa.Program, prof *profile.Profile, opts ScavengerOptions) (*isa.Program, *ScavengerResult, error) {
	if opts.TargetInterval == 0 {
		return nil, nil, fmt.Errorf("instrument: zero scavenger target interval")
	}
	g, err := bincfg.Build(prog)
	if err != nil {
		return nil, nil, err
	}
	live := bincfg.ComputeLiveness(g)
	dom := bincfg.ComputeDominators(g)
	loops := bincfg.NaturalLoops(g, dom)

	maskAt := func(pc int) isa.RegMask {
		if opts.LiveMasks {
			return live.LiveIn(pc)
		}
		return isa.AllRegs
	}

	// blockScale calibrates static estimates against LBR-observed block
	// latencies where available: if LBR saw the region entered at the
	// block's start run longer than the static sum, scale estimates up.
	blockScale := func(b *bincfg.Block) float64 {
		if prof == nil {
			return 1
		}
		obs, ok := prof.BlockLatencyAt(b.Start)
		if !ok {
			return 1
		}
		var static float64
		for i := b.Start; i < b.End; i++ {
			static += estimate(prog, prof, opts, i)
		}
		if static <= 0 || obs <= static {
			return 1
		}
		return obs / static
	}

	res := &ScavengerResult{}
	planned := make(map[int]bool) // instruction indices getting a CYIELD before them

	// Pass 1 — static loop guarantee: every natural loop must contain a
	// yield (existing or planned).
	for _, l := range loops {
		if !loopYields(prog, g, &l) {
			h := g.Blocks[l.Header]
			if !planned[h.Start] {
				planned[h.Start] = true
				res.LoopYields++
			}
		}
	}

	// Pass 2 — profile-guided spacing on the acyclic structure: walk in
	// reverse postorder accumulating distance since the last yield and
	// plan a CYIELD wherever it would exceed the target. Back edges are
	// covered by pass 1 (every loop now has a yield), so their
	// contribution to the entry distance is bounded by one iteration and
	// ignored here.
	target := float64(opts.TargetInterval)
	distOut := make([]float64, len(g.Blocks))
	for _, id := range g.ReversePostorder() {
		b := g.Blocks[id]
		var dist float64
		for _, p := range b.Preds {
			if dom.Dominates(id, p) {
				continue // back edge
			}
			if distOut[p] > dist {
				dist = distOut[p]
			}
		}
		scale := blockScale(b)
		for i := b.Start; i < b.End; i++ {
			if planned[i] {
				dist = 0
			}
			step := estimate(prog, prof, opts, i) * scale
			if dist > 0 && dist+step > target {
				if !planned[i] {
					planned[i] = true
					res.SpacingYields++
				}
				dist = 0
			}
			dist += step
			if prog.Instrs[i].Op.IsYield() {
				dist = 0
			}
		}
		distOut[id] = dist
	}

	rw := NewRewriter(prog)
	for pc := range planned {
		rw.InsertBefore(pc, isa.Instr{Op: isa.OpCYield, Imm: int64(maskAt(pc))})
	}
	out, oldToNew, err := rw.Apply()
	if err != nil {
		return nil, nil, err
	}
	res.OldToNew = oldToNew
	for _, pc := range rw.InsertionPoints() {
		res.CondYieldPCs = append(res.CondYieldPCs, oldToNew[pc]-1)
	}
	return out, res, nil
}

// SpacingReport is the output of CheckScavengerSpacing: a static audit of
// the §3.3 promise that a scavenger-mode coroutine always reaches a yield
// within roughly the target interval.
type SpacingReport struct {
	// MaxGap is the largest estimated cycle distance between adjacent
	// yield opportunities along any acyclic path.
	MaxGap float64
	// MaxStep is the largest single-instruction estimate (a yield cannot
	// split an instruction, so MaxGap can legitimately reach
	// TargetInterval + MaxStep).
	MaxStep float64
	// LoopsWithoutYield counts natural loops whose body contains no yield
	// of either phase — unbounded yield-free paths.
	LoopsWithoutYield int
}

// CheckScavengerSpacing audits an (instrumented) program against the
// scavenger-phase placement rules, using the same latency estimates the
// instrumenter used. It is the static verifier for the §3.3 interval
// guarantee, the counterpart of check.Program for the primary phase.
func CheckScavengerSpacing(prog *isa.Program, prof *profile.Profile, opts ScavengerOptions) (*SpacingReport, error) {
	g, err := bincfg.Build(prog)
	if err != nil {
		return nil, err
	}
	dom := bincfg.ComputeDominators(g)
	rep := &SpacingReport{}

	for _, l := range bincfg.NaturalLoops(g, dom) {
		if !loopYields(prog, g, &l) {
			rep.LoopsWithoutYield++
		}
	}

	distOut := make([]float64, len(g.Blocks))
	for _, id := range g.ReversePostorder() {
		b := g.Blocks[id]
		var dist float64
		for _, p := range b.Preds {
			if dom.Dominates(id, p) {
				continue
			}
			if distOut[p] > dist {
				dist = distOut[p]
			}
		}
		for i := b.Start; i < b.End; i++ {
			step := estimate(prog, prof, opts, i)
			if step > rep.MaxStep {
				rep.MaxStep = step
			}
			dist += step
			if dist > rep.MaxGap {
				rep.MaxGap = dist
			}
			if prog.Instrs[i].Op.IsYield() {
				dist = 0
			}
		}
		distOut[id] = dist
	}
	return rep, nil
}

// estimate is the scavenger phase's latency estimate for the instruction
// at pc, shared by placement and its audit: the busy cost plus, for
// loads and stores, the L1 latency and the profiled miss rate's share of
// the blended miss latency, and for ACCWAIT the profiled stall per
// execution.
func estimate(prog *isa.Program, prof *profile.Profile, opts ScavengerOptions, pc int) float64 {
	in := prog.Instrs[pc]
	c := float64(opts.CPU.BusyCost(in.Op))
	if in.Op == isa.OpAccWait && prof != nil {
		if ls := prof.Site(pc); ls != nil && ls.Execs > 0 {
			c += ls.StallCycles / ls.Execs
		}
	}
	if in.Op == isa.OpLoad || in.Op == isa.OpStore {
		c += float64(opts.Machine.LatL1)
		if prof != nil {
			if ls := prof.Site(pc); ls != nil {
				blend := blendedMissLatency(ls.DRAMFraction(), opts.Machine)
				c += ls.MissRate() * (blend - float64(opts.Machine.LatL1))
			}
		}
	}
	return c
}

// loopYields reports whether any instruction of loop l's body yields
// (either phase).
func loopYields(prog *isa.Program, g *bincfg.CFG, l *bincfg.Loop) bool {
	for _, id := range l.Blocks() {
		b := g.Blocks[id]
		for i := b.Start; i < b.End; i++ {
			if prog.Instrs[i].Op.IsYield() {
				return true
			}
		}
	}
	return false
}
