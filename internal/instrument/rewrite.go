// Package instrument implements the paper's core contribution:
// profile-guided yield instrumentation of binaries (§3.2) and scavenger
// instrumentation for asymmetric concurrency (§3.3).
//
// Everything operates at the binary level: the input is an encoded
// isa.Image, which is decoded, analyzed (CFG, liveness, dependence),
// rewritten with prefetch/yield insertions, relocated and re-encoded. No
// source-level information is consulted, which is precisely the paper's
// applicability argument for binary-level operation.
package instrument

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Rewriter accumulates insertions against a program and applies them in
// one pass with branch-target relocation.
//
// All insertions are positioned *before* an existing instruction index.
// Branches that targeted index t are redirected to the first instruction
// inserted before t — safe because insertions are effect-free
// (PREFETCH/YIELD/CYIELD/CHECK never change architectural results).
type Rewriter struct {
	prog    *isa.Program
	inserts map[int][]isa.Instr
}

// NewRewriter starts a rewrite of prog (which is not modified).
func NewRewriter(prog *isa.Program) *Rewriter {
	return &Rewriter{prog: prog, inserts: map[int][]isa.Instr{}}
}

// InsertBefore schedules instructions to execute immediately before the
// instruction currently at index i. Multiple calls append in order.
func (r *Rewriter) InsertBefore(i int, ins ...isa.Instr) {
	r.inserts[i] = append(r.inserts[i], ins...)
}

// Apply produces the rewritten program and the old-to-new index mapping
// for the original instructions.
func (r *Rewriter) Apply() (*isa.Program, []int, error) {
	n := len(r.prog.Instrs)
	oldToNew := make([]int, n)
	groupStart := make([]int, n+1) // new index of the insert-group for old index i

	// First pass: compute layout.
	pos := 0
	for i := 0; i < n; i++ {
		groupStart[i] = pos
		pos += len(r.inserts[i])
		oldToNew[i] = pos
		pos++
	}
	groupStart[n] = pos

	// Second pass: emit with relocation.
	out := &isa.Program{Instrs: make([]isa.Instr, 0, pos)}
	for i := 0; i < n; i++ {
		for _, ins := range r.inserts[i] {
			if ins.Op.IsBranch() {
				return nil, nil, fmt.Errorf("instrument: inserted instruction %v may not be a branch", ins)
			}
			out.Instrs = append(out.Instrs, ins)
		}
		in := r.prog.Instrs[i]
		if in.Op.IsBranch() {
			t := in.Target()
			if t < 0 || t >= n {
				return nil, nil, fmt.Errorf("instrument: instruction %d has invalid target %d", i, t)
			}
			in.Imm = int64(groupStart[t])
		}
		out.Instrs = append(out.Instrs, in)
	}
	if r.prog.Symbols != nil {
		out.Symbols = make(map[string]int, len(r.prog.Symbols))
		for name, idx := range r.prog.Symbols {
			if idx >= 0 && idx <= n {
				out.Symbols[name] = groupStart[idx]
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("instrument: rewrite produced invalid program: %w", err)
	}
	return out, oldToNew, nil
}

// InsertionPoints returns the old indices with pending insertions, sorted.
func (r *Rewriter) InsertionPoints() []int {
	pts := make([]int, 0, len(r.inserts))
	for i := range r.inserts {
		pts = append(pts, i)
	}
	sort.Ints(pts)
	return pts
}
