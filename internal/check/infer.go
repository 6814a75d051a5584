package check

import (
	"fmt"

	"repro/internal/isa"
)

// insertable reports whether op belongs to the effect-free set the
// rewriter may insert, and so may be skipped during map inference.
func insertable(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpPrefetch, isa.OpYield, isa.OpCYield, isa.OpCheck:
		return true
	}
	return false
}

// InferMap reconstructs the old-to-new index mapping by aligning the
// original instruction sequence into the rewritten one, skipping over
// effect-free insertions. Branches match on opcode and registers (their
// immediates were relocated). The result is a best-effort heuristic: if
// an original instruction is itself indistinguishable from an adjacent
// insertion the alignment may pick the earlier position, which is
// semantically equivalent. A sound rewrite always aligns; failure to
// align is itself evidence of tampering.
func InferMap(orig, rewritten *isa.Program) ([]int, error) {
	m := make([]int, len(orig.Instrs))
	j := 0
	for i, in := range orig.Instrs {
		for {
			if j >= len(rewritten.Instrs) {
				return nil, fmt.Errorf("original instruction %d (%v) has no image in the rewritten program", i, in)
			}
			r := rewritten.Instrs[j]
			if matchesOriginal(in, r) {
				m[i] = j
				j++
				break
			}
			if !insertable(r.Op) {
				return nil, fmt.Errorf("rewritten instruction %d (%v) is neither original instruction %d (%v) nor an effect-free insertion",
					j, r, i, in)
			}
			j++
		}
	}
	for ; j < len(rewritten.Instrs); j++ {
		if !insertable(rewritten.Instrs[j].Op) {
			return nil, fmt.Errorf("trailing rewritten instruction %d (%v) is not an effect-free insertion",
				j, rewritten.Instrs[j])
		}
	}
	return m, nil
}

// matchesOriginal reports whether r could be the image of in: exact
// equality, except branches whose immediate was relocated.
func matchesOriginal(in, r isa.Instr) bool {
	if in.Op.IsBranch() {
		return in.Op == r.Op && in.Rd == r.Rd && in.Rs1 == r.Rs1 && in.Rs2 == r.Rs2
	}
	return in == r
}
