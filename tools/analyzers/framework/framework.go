// Package framework is a minimal, dependency-free reimplementation of
// the go/analysis driver contract: named analyzers that inspect a
// type-checked package and report position-tagged diagnostics. It
// exists because this repository builds offline against the standard
// library only, while `go vet -vettool` expects a binary speaking the
// unitchecker protocol (see unitchecker.go). Analyzers written against
// Analyzer/Pass here port to golang.org/x/tools/go/analysis by renaming
// imports.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags; by
	// convention a short all-lowercase word (e.g. "detflow").
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run inspects the package via pass and reports findings through
	// pass.Reportf. The error return is for operational failures, not
	// findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string
	// Facts carries cross-package analysis results: facts exported by
	// the passes over this package's dependencies are visible here, and
	// facts exported here become visible to dependents (see facts.go).
	// Never nil.
	Facts *FactSet

	report func(Diagnostic)
}

// Reportf records one finding at pos with no rule attribution.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportRule records one finding attributed to a named rule of the
// analyzer. Rendered as "analyzer(rule): message", and carried
// structurally in -json output, so fixture tests can assert that a
// seeded defect was caught by the right rule.
func (p *Pass) ReportRule(pos token.Pos, rule, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Rule:     rule,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: which analyzer, which of its rules, where,
// and why.
type Diagnostic struct {
	Analyzer string
	Rule     string // "" when the analyzer has a single implicit rule
	Pos      token.Pos
	Message  string
}

// String renders the diagnostic message with its attribution prefix
// (position excluded — the caller owns position formatting).
func (d Diagnostic) String() string {
	if d.Rule == "" {
		return d.Message
	}
	return fmt.Sprintf("%s(%s): %s", d.Analyzer, d.Rule, d.Message)
}

// Analyze runs every analyzer over one type-checked package and
// returns the findings sorted by position. It is the shared core of
// the unitchecker entry point and the in-process tests. facts may be
// nil when no cross-package facts are in play (single-package tests).
func Analyze(importPath string, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, facts *FactSet, analyzers ...*Analyzer) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactSet()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			ImportPath: importPath,
			Facts:      facts,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
