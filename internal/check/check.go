// Package check is the whole-program semantic verifier for instrumented
// binaries, and the one gate every rewrite passes: core.Harness.Instrument
// runs it on every image the library builds, shinstr before it writes
// one, and shcheck over image files.
//
// Program first proves the rewrite *positionally* sound — originals in
// place, insertions effect-free, branches remapped, the mapping total
// and monotone — then consumes the binary analyses the pipeline already
// paid for (internal/bincfg: CFG, dominators, liveness) to prove the
// properties a positional diff cannot:
//
//   - liveness: every YIELD/CYIELD save mask covers every register live
//     at its program point. The runtime deliberately poisons unsaved
//     registers on resume (see isa), so an unsound mask is an
//     architectural miscompile — the exact silent failure mode that
//     ruins PGO deployments.
//   - yield-policy: primary yields sit immediately before the memory
//     operation they expose, and every save mask includes SP.
//   - branch-target: branch-target closure holds after rewriting — no
//     branch lands inside an insertion group, skipping its prefetches.
//   - call-discipline: call/ret block discipline holds — no RET is
//     reachable in an entry frame without an intervening CALL (a
//     guaranteed return-stack underflow fault at runtime).
//   - unreachable-group: every insertion group is executable from some
//     entry (dead instrumentation indicates a broken policy or a
//     corrupted image).
//   - sfi: in SFI-hardened images, every LOAD (and STORE when guarded)
//     is preceded by a CHECK guarding the same address, or sits in the
//     co-design shadow of a yield (internal/sfi).
//
// Findings are accumulated into a Report — a structured diagnostic list
// (rule, severity, old/new PC, message) rather than a first-error — so a
// corrupted image surfaces its full damage in one pass. The report is
// exposed through the shcheck CLI (tool image in, JSON or human
// diagnostics out) and as the *ReportError the gates return.
package check

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Severity classifies a diagnostic.
type Severity uint8

const (
	// SevWarning marks findings that do not change architectural
	// results but indicate the pipeline misbehaved.
	SevWarning Severity = iota
	// SevError marks soundness violations: executing the image can
	// produce wrong results or fault.
	SevError
)

func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("check: unknown severity %q", name)
	}
	return nil
}

// Rule identifies which invariant a diagnostic violates. Every rule has
// a seeded-defect case in the negative corpus (corpus_test.go) proving
// the checker rejects it.
type Rule string

const (
	// RuleMapping: the old→new index mapping is malformed (wrong length,
	// non-monotone, out of range) or the rewritten program is invalid.
	RuleMapping Rule = "mapping"
	// RuleOriginal: an original instruction was altered by the rewrite
	// (beyond branch-target remapping).
	RuleOriginal Rule = "original-changed"
	// RuleEffectFree: an inserted instruction is not from the effect-free
	// set (NOP, PREFETCH, YIELD, CYIELD, CHECK).
	RuleEffectFree Rule = "effect-free"
	// RuleLiveness: a yield's save mask misses a live register, or an
	// inserted instruction writes a register that is live at its point.
	RuleLiveness Rule = "liveness"
	// RuleYieldPolicy: an inserted primary YIELD is not immediately
	// followed by the original memory operation it exposes, or a save
	// mask omits SP.
	RuleYieldPolicy Rule = "yield-policy"
	// RuleBranchTarget: a branch or call lands somewhere other than an
	// insertion-group start (e.g. inside a group, skipping prefetches).
	RuleBranchTarget Rule = "branch-target"
	// RuleCallDiscipline: call/ret block discipline is broken — a RET is
	// reachable from an entry without an intervening CALL.
	RuleCallDiscipline Rule = "call-discipline"
	// RuleUnreachableGroup: an insertion group can never execute from
	// any entry point.
	RuleUnreachableGroup Rule = "unreachable-group"
	// RuleSFI: an SFI-hardened image has a memory access without a
	// matching CHECK guard (or co-designed yield shadow).
	RuleSFI Rule = "sfi"
)

// Diagnostic is one finding: which rule, where, and why.
type Diagnostic struct {
	Rule     Rule     `json:"rule"`
	Severity Severity `json:"severity"`
	// NewPC is the instruction index in the rewritten program, -1 when
	// the finding has no single position.
	NewPC int `json:"new_pc"`
	// OldPC is the corresponding original-program index, -1 when the
	// finding concerns an inserted instruction or has no original.
	OldPC int    `json:"old_pc"`
	Msg   string `json:"msg"`
}

func (d Diagnostic) String() string {
	pos := "-"
	if d.NewPC >= 0 {
		pos = fmt.Sprintf("pc=%d", d.NewPC)
		if d.OldPC >= 0 {
			pos += fmt.Sprintf(" (old=%d)", d.OldPC)
		}
	}
	return fmt.Sprintf("%s: [%s] %s: %s", d.Severity, d.Rule, pos, d.Msg)
}

// Report is the accumulated outcome of one verification pass.
type Report struct {
	// Diags lists every finding in program order (by NewPC, positionless
	// findings first).
	Diags []Diagnostic `json:"diagnostics"`
	// Checked counts rewritten-program instructions examined; Inserted
	// counts how many of them were insertions.
	Checked  int `json:"checked"`
	Inserted int `json:"inserted"`
}

func (r *Report) add(rule Rule, sev Severity, newPC, oldPC int, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{
		Rule: rule, Severity: sev, NewPC: newPC, OldPC: oldPC,
		Msg: fmt.Sprintf(format, args...),
	})
}

// Errors counts error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return len(r.Diags) - r.Errors() }

// Clean reports whether the image passed: no findings of any severity.
func (r *Report) Clean() bool { return len(r.Diags) == 0 }

// HasRule reports whether any finding violates the given rule.
func (r *Report) HasRule(rule Rule) bool {
	for _, d := range r.Diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// String renders the report in the shcheck human format: one line per
// finding plus a summary line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "checked %d instructions (%d inserted): %d errors, %d warnings\n",
		r.Checked, r.Inserted, r.Errors(), r.Warnings())
	return b.String()
}

// Err returns nil for a clean report and a *ReportError otherwise, so
// callers can gate ("verification must be clean") in one line.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	return &ReportError{Report: r}
}

// ReportError wraps a non-clean Report as an error for gating call
// sites (core.Harness.Instrument, shinstr).
type ReportError struct {
	Report *Report
}

func (e *ReportError) Error() string {
	return fmt.Sprintf("check: image failed verification with %d errors, %d warnings:\n%s",
		e.Report.Errors(), e.Report.Warnings(), e.Report.String())
}
