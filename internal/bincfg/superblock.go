package bincfg

import (
	"repro/internal/cpu"
	"repro/internal/isa"
)

// This file derives superblock traces for the superblock execution tier
// (cpu.InstallSuperblocks) from the instruction stream plus an optional
// LBR-style taken-edge profile (pebs.LBRStats.SortedEdges). Like
// blockplan.go it is cycle-domain adjacent: the traces it emits decide
// how the simulated clock advances, so the determinism contract (no map
// iteration, no wall clock, no global rand) applies — detlint checks
// this file by name.

// EdgeWeight is one observed taken control transfer with its sample
// count. It mirrors pebs.Edge but is declared locally so trace
// derivation does not depend on the profiling package; adapt with
// EdgeWeightsFromPairs or construct directly.
type EdgeWeight struct {
	From, To int
	Count    uint64
}

const (
	// sbMaxLen bounds a single trace; longer chains see diminishing
	// returns and cost compile time and memo slots.
	sbMaxLen = 512
	// sbMinLen is the shortest trace worth installing: below it the
	// entry check costs as much as the specialized loop saves.
	sbMinLen = 4
)

// predictTaken resolves the predicted direction of the branch at pc.
// With a profile, an observed taken edge predicts taken — the LBR
// records only taken transfers, so presence is the entire signal. With
// no observation the static BTFN heuristic applies: backward branches
// (loop latches) predict taken, forward branches fall through.
// Unconditional jumps are always taken.
func predictTaken(in *isa.Instr, pc int, taken map[EdgeWeight]bool) bool {
	if in.Op == isa.OpJmp {
		return true
	}
	if taken != nil {
		return taken[EdgeWeight{From: pc, To: in.Target()}]
	}
	return in.Target() <= pc
}

// SuperblockSpecs derives superblock traces for prog. Trace heads are
// the static loop-head candidates (pc 0 and every backward-branch
// target) plus the destination of every profiled taken edge; from each
// head the trace follows straight-line flow and the predicted direction
// of each branch until it meets an instruction the tier cannot trace
// (cpu.SuperblockTraceable: conditional yields chain, primary-phase
// yields, calls, returns and halts do not), re-enters itself (closing a
// loop trace when it re-enters at the head), or hits the length cap.
// Traces shorter than sbMinLen are dropped. The profile may be nil (pure
// static BTFN derivation). Output order is deterministic: heads are
// visited in ascending pc order, then in profile order.
func SuperblockSpecs(prog *isa.Program, profile []EdgeWeight) []cpu.SuperblockSpec {
	n := len(prog.Instrs)
	if n == 0 {
		return nil
	}
	var taken map[EdgeWeight]bool
	if profile != nil {
		taken = make(map[EdgeWeight]bool, len(profile))
		for _, e := range profile {
			if e.Count > 0 {
				taken[EdgeWeight{From: e.From, To: e.To}] = true
			}
		}
	}

	isHead := make([]bool, n)
	heads := make([]int, 0, 8)
	addHead := func(pc int) {
		if pc >= 0 && pc < n && !isHead[pc] && cpu.SuperblockTraceable(prog.Instrs[pc].Op) {
			isHead[pc] = true
			heads = append(heads, pc)
		}
	}
	addHead(0)
	for pc := range prog.Instrs {
		in := &prog.Instrs[pc]
		if (in.Op == isa.OpJmp || in.Op.IsConditional()) && in.Target() <= pc {
			addHead(in.Target())
		}
	}
	for _, e := range profile {
		if e.Count > 0 {
			addHead(e.To)
		}
	}

	inTrace := make([]bool, n) // per-trace scratch, reset after each walk
	var specs []cpu.SuperblockSpec
	for _, head := range heads {
		pcs := make([]int, 0, 16)
		loop := false
		pc := head
		for len(pcs) < sbMaxLen {
			if pc < 0 || pc >= n || inTrace[pc] || !cpu.SuperblockTraceable(prog.Instrs[pc].Op) {
				break
			}
			inTrace[pc] = true
			pcs = append(pcs, pc)
			in := &prog.Instrs[pc]
			next := pc + 1
			if in.Op == isa.OpJmp || in.Op.IsConditional() {
				if predictTaken(in, pc, taken) {
					next = in.Target()
				}
				if next == head {
					loop = true
					break
				}
			}
			pc = next
		}
		for _, p := range pcs {
			inTrace[p] = false
		}
		if len(pcs) >= sbMinLen {
			specs = append(specs, cpu.SuperblockSpec{PCs: pcs, Loop: loop})
		}
	}
	return specs
}

// InstallSuperblocks derives traces for core's program — optionally
// profile-guided — and installs them, enabling the superblock tier. A
// program with no viable trace installs an empty set, which RunBlock
// treats as plain block dispatch.
func InstallSuperblocks(core *cpu.Core, profile []EdgeWeight) error {
	return core.InstallSuperblocks(SuperblockSpecs(core.Prog, profile))
}
