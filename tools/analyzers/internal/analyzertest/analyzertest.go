// Package analyzertest type-checks small fixture sources against
// synthesized dependency packages and runs analyzers over them
// in-process. The synthesized packages exist because these tests run
// offline: go/importer cannot load real export data for "time" or
// "math/rand" without invoking the build system, and the fixtures only
// need the handful of names the analyzers match on.
//
// For interprocedural analyzers, a Project threads one FactSet through
// a sequence of fixture packages checked in dependency order: facts
// exported while checking package A are visible when checking a later
// package that imports A, exactly as the unitchecker feeds dependency
// vetx files to dependent units.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"repro/tools/analyzers/framework"
)

// Project accumulates type-checked fixture packages and the facts the
// analyzers exported over them.
type Project struct {
	fset  *token.FileSet
	deps  map[string]*types.Package
	facts *framework.FactSet
}

// NewProject starts a fixture project whose packages may import the
// given stub dependencies (and, transitively, each other).
func NewProject(deps map[string]*types.Package) *Project {
	all := map[string]*types.Package{"unsafe": types.Unsafe}
	for path, pkg := range deps {
		all[path] = pkg
	}
	return &Project{
		fset:  token.NewFileSet(),
		deps:  all,
		facts: framework.NewFactSet(),
	}
}

// Facts exposes the project's accumulated fact set for assertions.
func (p *Project) Facts() *framework.FactSet { return p.facts }

// Check parses and type-checks the given files (name → source) as one
// package with the given import path, resolving imports from the
// project's packages, runs the analyzers with the accumulated facts,
// registers the package for later fixtures to import, and returns the
// diagnostics in positional order.
func (p *Project) Check(t *testing.T, importPath string, files map[string]string,
	analyzers ...*framework.Analyzer) []framework.Diagnostic {
	t.Helper()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.fset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	conf := &types.Config{Importer: mapImporter(p.deps)}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(importPath, p.fset, parsed, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", importPath, err)
	}
	diags, err := framework.Analyze(importPath, p.fset, parsed, pkg, info, p.facts, analyzers...)
	if err != nil {
		t.Fatalf("analyzing fixture %s: %v", importPath, err)
	}
	p.deps[importPath] = pkg
	return diags
}

// Check is the single-package convenience: one fixture package, no
// cross-package facts.
func Check(t *testing.T, importPath string, files map[string]string,
	deps map[string]*types.Package, analyzers ...*framework.Analyzer) []framework.Diagnostic {
	t.Helper()
	return NewProject(deps).Check(t, importPath, files, analyzers...)
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("fixture import %q not stubbed", path)
}

// FuncsPackage synthesizes a complete package exporting the named
// niladic functions — enough for analyzers that match on selector
// names rather than signatures.
func FuncsPackage(path, name string, funcs ...string) *types.Package {
	pkg := types.NewPackage(path, name)
	for _, fn := range funcs {
		sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, fn, sig))
	}
	pkg.MarkComplete()
	return pkg
}

// Time stubs the "time" package with the wall-clock readers detflow
// forbids, with realistic shapes: Now() Time, Since/Until(Time) Duration.
func Time() *types.Package {
	pkg := types.NewPackage("time", "time")
	timeObj := types.NewTypeName(token.NoPos, pkg, "Time", nil)
	timeT := types.NewNamed(timeObj, types.NewStruct(nil, nil), nil)
	durObj := types.NewTypeName(token.NoPos, pkg, "Duration", nil)
	durT := types.NewNamed(durObj, types.Typ[types.Int64], nil)
	pkg.Scope().Insert(timeObj)
	pkg.Scope().Insert(durObj)
	result := func(t types.Type) *types.Tuple {
		return types.NewTuple(types.NewVar(token.NoPos, pkg, "", t))
	}
	param := func(t types.Type) *types.Tuple {
		return types.NewTuple(types.NewVar(token.NoPos, pkg, "t", t))
	}
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Now",
		types.NewSignatureType(nil, nil, nil, nil, result(timeT), false)))
	for _, fn := range []string{"Since", "Until"} {
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, fn,
			types.NewSignatureType(nil, nil, nil, param(timeT), result(durT), false)))
	}
	pkg.MarkComplete()
	return pkg
}

// Rand stubs "math/rand" with the global-source draw detflow forbids,
// Intn(int) int, and the seeded-generator constructor it allows,
// New(int64) *Rand.
func Rand() *types.Package {
	pkg := types.NewPackage("math/rand", "rand")
	randObj := types.NewTypeName(token.NoPos, pkg, "Rand", nil)
	randT := types.NewNamed(randObj, types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(randObj)
	fn := func(name string, param, result types.Type) {
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name, types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "n", param)),
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", result)), false)))
	}
	fn("Intn", types.Typ[types.Int], types.Typ[types.Int])
	fn("New", types.Typ[types.Int64], types.NewPointer(randT))
	pkg.MarkComplete()
	return pkg
}

// Sort stubs "sort" with Slice and SliceStable(x any, less func(i, j
// int) bool), the sorts detflow inspects for pointer-slice arguments.
func Sort() *types.Package {
	pkg := types.NewPackage("sort", "sort")
	intT := types.Typ[types.Int]
	less := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "i", intT), types.NewVar(token.NoPos, pkg, "j", intT)),
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", types.Typ[types.Bool])), false)
	params := types.NewTuple(
		types.NewVar(token.NoPos, pkg, "x", types.Universe.Lookup("any").Type()),
		types.NewVar(token.NoPos, pkg, "less", less))
	for _, name := range []string{"Slice", "SliceStable"} {
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name,
			types.NewSignatureType(nil, nil, nil, params, nil, false)))
	}
	pkg.MarkComplete()
	return pkg
}

// Fmt stubs "fmt" with the printf family the analyzers inspect for
// address-formatting verbs: Sprintf/Errorf (format-first) and Printf.
func Fmt() *types.Package {
	pkg := types.NewPackage("fmt", "fmt")
	anyT := types.Universe.Lookup("any").Type()
	args := types.NewVar(token.NoPos, pkg, "args", types.NewSlice(anyT))
	format := types.NewVar(token.NoPos, pkg, "format", types.Typ[types.String])
	result := func(t types.Type) *types.Tuple {
		if t == nil {
			return nil
		}
		return types.NewTuple(types.NewVar(token.NoPos, pkg, "", t))
	}
	errorT := types.Universe.Lookup("error").Type()
	for name, res := range map[string]types.Type{
		"Sprintf": types.Typ[types.String],
		"Errorf":  errorT,
		"Printf":  nil,
	} {
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name,
			types.NewSignatureType(nil, nil, nil, types.NewTuple(format, args), result(res), true)))
	}
	pkg.MarkComplete()
	return pkg
}

// Reflect stubs "reflect" with ValueOf and the Value.MapKeys method
// detflow forbids.
func Reflect() *types.Package {
	pkg := types.NewPackage("reflect", "reflect")
	valObj := types.NewTypeName(token.NoPos, pkg, "Value", nil)
	valT := types.NewNamed(valObj, types.NewStruct(nil, nil), nil)
	recv := types.NewVar(token.NoPos, pkg, "v", valT)
	mapKeys := types.NewFunc(token.NoPos, pkg, "MapKeys",
		types.NewSignatureType(recv, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", types.NewSlice(valT))), false))
	valT.AddMethod(mapKeys)
	pkg.Scope().Insert(valObj)
	anyT := types.Universe.Lookup("any").Type()
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "ValueOf",
		types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "i", anyT)),
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", valT)), false)))
	pkg.MarkComplete()
	return pkg
}

// Messages flattens diagnostics to "analyzer: message" strings for
// simple substring assertions (rule attributions included when set).
func Messages(diags []framework.Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		if d.Rule != "" {
			out[i] = d.String()
		} else {
			out[i] = fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		}
	}
	return out
}
