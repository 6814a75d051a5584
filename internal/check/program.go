package check

import (
	"sort"

	"repro/internal/bincfg"
	"repro/internal/isa"
	"repro/internal/sfi"
)

// Options configures a verification pass.
type Options struct {
	// Entries are the rewritten-program indices execution can start from
	// (coroutine entry points). They root the reachability analyses:
	// call/ret discipline and insertion-group reachability. Empty
	// defaults to the program's own entries (isa.Program.Entries), or
	// to instruction 0 when it names none.
	Entries []int
	// SFI, when non-nil, additionally enforces guard discipline: every
	// LOAD (and STORE when GuardStores) must be preceded by a CHECK of
	// the same address, or — with CoDesign — sit in the shadow of a
	// yield's context switch (see internal/sfi).
	SFI *sfi.Options
}

// Program verifies that rewritten is a sound instrumentation of orig
// under the oldToNew index mapping, accumulating every finding into a
// Report. It never stops at the first violation; only a malformed
// mapping (or an invalid rewritten program) short-circuits, because
// every later rule keys off the group layout the mapping defines.
func Program(orig, rewritten *isa.Program, oldToNew []int, opts Options) *Report {
	rep := &Report{}
	n := len(orig.Instrs)

	if len(oldToNew) != n {
		rep.add(RuleMapping, SevError, -1, -1,
			"mapping covers %d of %d instructions", len(oldToNew), n)
		return rep
	}
	if err := rewritten.Validate(); err != nil {
		rep.add(RuleMapping, SevError, -1, -1, "rewritten program invalid: %v", err)
		return rep
	}
	rep.Checked = len(rewritten.Instrs)
	rep.Inserted = len(rewritten.Instrs) - n

	// Group layout: old instruction i's insertion group occupies
	// [groupStart[i], oldToNew[i]) and its image sits at oldToNew[i].
	groupStart := make([]int, n)
	prevEnd := 0
	for i, nw := range oldToNew {
		if nw < prevEnd || nw >= len(rewritten.Instrs) {
			rep.add(RuleMapping, SevError, nw, i, "mapping not monotone or out of range")
			return rep
		}
		groupStart[i] = prevEnd
		prevEnd = nw + 1
	}

	isOriginal := make([]bool, len(rewritten.Instrs))
	validTarget := make([]bool, len(rewritten.Instrs))
	for _, gs := range groupStart {
		validTarget[gs] = true
	}

	// Positional soundness: originals in place (modulo branch-target
	// remapping), insertions from the effect-free set.
	for i, in := range orig.Instrs {
		nw := oldToNew[i]
		isOriginal[nw] = true
		want := in
		if in.Op.IsBranch() {
			t := in.Target()
			if t < 0 || t >= n {
				rep.add(RuleMapping, SevError, nw, i, "original branch target %d outside program", t)
				continue
			}
			want.Imm = int64(groupStart[t])
		}
		if rewritten.Instrs[nw] != want {
			rep.add(RuleOriginal, SevError, nw, i,
				"original instruction changed: %v -> %v", in, rewritten.Instrs[nw])
		}
	}
	for p, in := range rewritten.Instrs {
		if isOriginal[p] {
			continue
		}
		switch in.Op {
		case isa.OpNop, isa.OpPrefetch, isa.OpYield, isa.OpCYield, isa.OpCheck:
		default:
			rep.add(RuleEffectFree, SevError, p, -1,
				"inserted instruction (%v) is not effect-free", in)
		}
	}

	// Branch-target closure over the whole rewritten program: every
	// transfer through an immediate must land on a group start, so the
	// prefetches and yields guarding an instruction always execute
	// before it.
	for p, in := range rewritten.Instrs {
		if !in.Op.IsBranch() || validTarget[in.Target()] {
			continue
		}
		t := in.Target()
		// Locate the group the target falls into for a precise message.
		i := sort.SearchInts(oldToNew, t)
		if i < n && t > groupStart[i] {
			rep.add(RuleBranchTarget, SevError, p, -1,
				"branch targets %d, inside the insertion group of old pc %d (group starts at %d)",
				t, i, groupStart[i])
		} else {
			rep.add(RuleBranchTarget, SevError, p, -1,
				"branch targets %d, not a remapped original position", t)
		}
	}

	g, err := bincfg.Build(rewritten)
	if err != nil {
		rep.add(RuleMapping, SevError, -1, -1, "rewritten program has no CFG: %v", err)
		sortDiags(rep)
		return rep
	}
	live := bincfg.ComputeLiveness(g)

	// Liveness safety. The runtime poisons every register a yield's mask
	// omits (see isa), so the mask must cover everything live at the
	// yield; and an insertion must never write a register that is live
	// at its point.
	for p, in := range rewritten.Instrs {
		if in.Op.IsYield() {
			need := live.LiveOut(p)
			if missing := need &^ in.LiveMask(); missing != 0 {
				old := -1
				if isOriginal[p] {
					old = oldOf(oldToNew, p)
				}
				rep.add(RuleLiveness, SevError, p, old,
					"%v save mask %v omits live registers %v (poisoned on resume)",
					in.Op, in.LiveMask(), missing)
			}
		}
		if !isOriginal[p] {
			if clobbered := in.Defs() & live.LiveOut(p); clobbered != 0 {
				rep.add(RuleLiveness, SevError, p, -1,
					"inserted %v clobbers live registers %v", in, clobbered)
			}
		}
	}

	// Yield-policy discipline: an inserted primary YIELD exists to
	// expose the memory operation immediately after it (prefetch+yield
	// pairs, §3.2); a detached one means the insertion group was split
	// or reordered. CYIELDs (scavenger spacing, §3.3) may sit anywhere.
	for p, in := range rewritten.Instrs {
		if isOriginal[p] || in.Op != isa.OpYield {
			continue
		}
		// SFI hardening may interleave guards between the yield and its
		// memory operation (the co-design shadow, internal/sfi), so skip
		// inserted CHECKs when locating the exposed instruction.
		next := p + 1
		for next < len(rewritten.Instrs) && !isOriginal[next] &&
			rewritten.Instrs[next].Op == isa.OpCheck {
			next++
		}
		ok := next < len(rewritten.Instrs) && isOriginal[next]
		if ok {
			switch rewritten.Instrs[next].Op {
			case isa.OpLoad, isa.OpStore, isa.OpAccWait:
			default:
				ok = false
			}
		}
		if !ok {
			rep.add(RuleYieldPolicy, SevWarning, p, -1,
				"inserted YIELD is not immediately followed by the original memory operation it exposes")
		}
	}

	entries := opts.Entries
	if len(entries) == 0 {
		for _, e := range rewritten.Entries() {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 && len(rewritten.Instrs) > 0 {
		entries = []int{0}
	}
	checkReachability(rep, g, rewritten, entries, groupStart, oldToNew, isOriginal)

	if opts.SFI != nil {
		checkSFI(rep, rewritten, *opts.SFI)
	}
	sortDiags(rep)
	return rep
}

// oldOf recovers the original index mapped to rewritten position p, -1
// if p is an insertion. oldToNew is strictly increasing.
func oldOf(oldToNew []int, p int) int {
	i := sort.SearchInts(oldToNew, p)
	if i < len(oldToNew) && oldToNew[i] == p {
		return i
	}
	return -1
}

// checkReachability proves the two whole-program closure rules over the
// rewritten CFG:
//
//   - call-discipline: no RET is reachable from an entry block through
//     intraprocedural edges alone. The CFG treats CALL as an opaque
//     fall-through (see bincfg), so blocks reached this way execute in
//     the entry's own frame, where a RET pops an empty return stack —
//     a guaranteed runtime fault.
//   - unreachable-group: every non-empty insertion group must be
//     executable: reachable from an entry through the CFG extended with
//     CALL edges. Instrumentation in dead code means the policy
//     consumed stale profile PCs or the image was corrupted.
func checkReachability(rep *Report, g *bincfg.CFG, rewritten *isa.Program,
	entries []int, groupStart, oldToNew []int, isOriginal []bool) {
	if len(g.Blocks) == 0 {
		return
	}
	entries = append([]int(nil), entries...)
	sort.Ints(entries)

	// Frame reachability: entry blocks, following CFG edges only.
	inFrame := make([]bool, len(g.Blocks))
	var stack []int
	push := func(b int, seen []bool) {
		if !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
	}
	for _, e := range entries {
		if e < 0 || e >= len(rewritten.Instrs) {
			rep.add(RuleMapping, SevError, e, -1, "entry point outside program")
			continue
		}
		push(g.BlockOf(e).ID, inFrame)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[id].Succs {
			push(s, inFrame)
		}
	}
	for _, b := range g.Blocks {
		if !inFrame[b.ID] {
			continue
		}
		for p := b.Start; p < b.End; p++ {
			if rewritten.Instrs[p].Op == isa.OpRet {
				rep.add(RuleCallDiscipline, SevError, p, oldOf(oldToNew, p),
					"RET reachable from an entry without an intervening CALL (return-stack underflow)")
			}
		}
	}

	// Executable closure: frame blocks plus, transitively, every CALL
	// target of an executable block.
	executable := make([]bool, len(g.Blocks))
	for _, e := range entries {
		if e >= 0 && e < len(rewritten.Instrs) {
			push(g.BlockOf(e).ID, executable)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := g.Blocks[id]
		for p := b.Start; p < b.End; p++ {
			if rewritten.Instrs[p].Op == isa.OpCall {
				push(g.BlockOf(rewritten.Instrs[p].Target()).ID, executable)
			}
		}
		for _, s := range b.Succs {
			push(s, executable)
		}
	}
	for i, gs := range groupStart {
		if gs == oldToNew[i] {
			continue // empty group
		}
		if !executable[g.BlockOf(gs).ID] {
			rep.add(RuleUnreachableGroup, SevError, gs, i,
				"insertion group of %d instructions before old pc %d is unreachable from any entry",
				oldToNew[i]-gs, i)
		}
	}
}

// checkSFI enforces the guard discipline of an SFI-hardened image: each
// guarded memory access must be dominated — immediately — by a CHECK of
// the same address expression, or (CoDesign) by a yield whose context
// switch shadows the 1-cycle bounds check (internal/sfi, paper §4.2).
func checkSFI(rep *Report, rewritten *isa.Program, opts sfi.Options) {
	for p, in := range rewritten.Instrs {
		switch in.Op {
		case isa.OpLoad:
		case isa.OpStore:
			if !opts.GuardStores {
				continue
			}
		default:
			continue
		}
		if p > 0 {
			prev := rewritten.Instrs[p-1]
			if prev.Op == isa.OpCheck && prev.Rs1 == in.Rs1 && prev.Imm == in.Imm {
				continue
			}
			if opts.CoDesign && prev.Op == isa.OpYield {
				continue
			}
		}
		rep.add(RuleSFI, SevError, p, -1,
			"%v has no preceding CHECK guarding [r%d%+d]", in.Op, in.Rs1, in.Imm)
	}
}

// sortDiags orders findings by position (positionless first), then rule,
// so reports are deterministic regardless of pass order.
func sortDiags(rep *Report) {
	sort.SliceStable(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.NewPC != b.NewPC {
			return a.NewPC < b.NewPC
		}
		return a.Rule < b.Rule
	})
}
