// Package detflow enforces the repository's determinism contract: every
// simulated run with the same seed must be bit-identical, so code that
// decides how the simulated clock moves must not observe a
// nondeterminism source. One classifier (scan) recognizes the sources;
// the analyzer applies it in two scopes.
//
// # Sources
//
// Each construct below has caused, or would cause, a real
// nondeterminism bug. Diagnostics are attributed to the rule:
//
//	wallclock   time.Now / time.Since / time.Until, called or taken as a
//	            function value: wall-clock reads leak host timing
//	globalrand  package-level math/rand and math/rand/v2 functions (the
//	            process-seeded global source; constructors and methods
//	            on an explicitly seeded *rand.Rand are fine)
//	randimport  an import of math/rand or math/rand/v2 (imports live
//	            outside function bodies, so only the backstop sees it)
//	maprange    range over a map (iteration order is per-run random —
//	            the PR-1 reclaim bug installed fills in this order)
//	select      select with two or more communication cases (the
//	            runtime picks among ready cases pseudo-randomly)
//	addrformat  a %p verb in a fmt format string
//	addrvalue   uintptr conversion of a pointer
//	mapkeys     reflect.Value.MapKeys (map order again)
//	ptrsort     sort.Slice / sort.SliceStable over a slice of pointers
//	            (harvested pointer keys order by allocation address)
//
// # Interprocedural scope
//
// Entry points are the functions annotated `//shsim:cycle-entry` — the
// exec/smt/machine/service step loops and the runner's per-job cell
// executor. For every function in every in-module package, detflow
// computes whether it transitively reaches a source, exporting the
// result as a framework fact so the analysis composes across packages
// (facts flow bottom-up: the package defining a helper is analyzed
// before the package whose entry point calls it). An entry point that
// reaches a source is reported with the full call chain — the PR-1
// reclaim bug in disguise, a step loop calling a helper that ranges
// over a map three frames down in another package, is caught this way.
// Indirect calls (function values, interface methods) contribute no
// edges; see tools/analyzers/internal/flow.
//
// # Backstop scope
//
// Every non-test file of a cycle-domain package
// (internal/{mem,cpu,exec,smt,pebs,machine,service}) is inspected whole
// — imports, package-level initialisers and function bodies — and every
// source is reported at the construct. This covers what the call graph
// cannot follow. Suppressions do not apply here.
//
// # Suppression
//
// `//shsim:nondeterministic-ok <reason>` on a function declaration
// excludes that function (body and callees) from taint propagation.
// The reason is mandatory — an unexplained suppression is itself a
// finding (rule "suppression") — and is the written record reviewers
// audit instead of the code.
package detflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/internal/flow"
)

// FactKind is the fact table detflow exports: object key (function) →
// encoded flow.Taint the function transitively reaches.
const FactKind = "detflow.taint"

// Directives recognized by detflow.
const (
	DirEntry    = "cycle-entry"
	DirSuppress = "nondeterministic-ok"
)

var Analyzer = &framework.Analyzer{
	Name: "detflow",
	Doc: "forbid nondeterminism sources (wall clocks, global rand, map iteration, multi-case selects, address-dependent values) in the cycle domain\n\n" +
		"Functions annotated //shsim:cycle-entry must not transitively reach a source, across package boundaries " +
		"via exported facts; every non-test file of the packages under internal/ named mem, cpu, exec, smt, pebs, " +
		"machine or service must not contain one.",
	Run: run,
}

// cycleDomain lists the package base names under internal/ whose
// computations feed simulated state.
var cycleDomain = map[string]bool{
	"mem": true, "cpu": true, "exec": true, "smt": true,
	"pebs": true, "machine": true, "service": true,
}

func inCycleDomain(importPath string) bool {
	base := importPath[strings.LastIndexByte(importPath, '/')+1:]
	return strings.Contains(importPath+"/", "/internal/") && cycleDomain[base]
}

func run(pass *framework.Pass) error {
	backstop := inCycleDomain(pass.ImportPath)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		// Directive hygiene: a detached annotation enforces nothing.
		for _, d := range flow.Misplaced(file, DirEntry, DirSuppress) {
			pass.ReportRule(d.Pos, "misplaced",
				"//shsim:%s must be the doc comment of a function declaration", d.Name)
		}
		if backstop {
			scan(pass.TypesInfo, file, func(pos token.Pos, t flow.Taint) {
				pass.ReportRule(pos, t.Rule, "nondeterminism source in cycle-domain package: %s", t.Detail)
			})
		}
	}

	// Local sources per function, plus suppression marking.
	g := flow.BuildGraph(pass)
	local := map[*types.Func][]flow.Taint{}
	suppressed := map[*types.Func]bool{}
	for _, fn := range g.Funcs {
		fd := g.Decl[fn]
		if d, ok := flow.FuncDirective(fd, DirSuppress); ok {
			if d.Arg == "" {
				pass.ReportRule(d.Pos, "suppression",
					"//shsim:nondeterministic-ok requires a written reason")
			} else {
				suppressed[fn] = true
			}
		}
		scan(pass.TypesInfo, fd.Body, func(_ token.Pos, t flow.Taint) {
			local[fn] = append(local[fn], t)
		})
	}

	taints := flow.Propagate(g, local,
		func(callee *types.Func) (flow.Taint, bool) {
			if v, ok := pass.Facts.LookupFunc(FactKind, callee); ok {
				return flow.DecodeTaint(v)
			}
			return flow.Taint{}, false
		},
		func(fn *types.Func) bool { return suppressed[fn] })

	// Export every function's taint for dependent packages, and report
	// at the annotated entry points.
	for _, fn := range g.Funcs {
		t, tainted := taints[fn]
		if !tainted {
			continue
		}
		pass.Facts.Export(FactKind, framework.ObjectKey(fn), t.Encode())
		fd := g.Decl[fn]
		if _, isEntry := flow.FuncDirective(fd, DirEntry); isEntry {
			pass.ReportRule(fd.Name.Pos(), t.Rule,
				"cycle-domain entry %s reaches a nondeterminism source: %s (via %s)",
				flow.FuncName(fn), t.Detail, t.Chain)
		}
	}
	return nil
}

// scan calls found for every nondeterminism source under root, in
// source order. A source reached by use of a standard-library function
// carries that function as its chain; structural sources carry none.
func scan(info *types.Info, root ast.Node, found func(token.Pos, flow.Taint)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if path, _ := strconv.Unquote(n.Path.Value); path == "math/rand" || path == "math/rand/v2" {
				found(n.Pos(), flow.Taint{Rule: "randimport",
					Detail: "import of " + path + " (the global source is process-seeded; thread the scenario's seeded rng)"})
			}
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if t, ok := sourceFunc(fn); ok {
					found(n.Pos(), t)
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					found(n.Pos(), flow.Taint{Rule: "maprange",
						Detail: "range over map (iteration order is randomized per run)"})
				}
			}
		case *ast.SelectStmt:
			cases := 0
			for _, cc := range n.Body.List {
				if cl, ok := cc.(*ast.CommClause); ok && cl.Comm != nil {
					cases++
				}
			}
			if cases >= 2 {
				found(n.Pos(), flow.Taint{Rule: "select",
					Detail: "select with multiple communication cases (runtime picks among ready cases pseudo-randomly)"})
			}
		case *ast.CallExpr:
			scanCall(info, n, found)
		}
		return true
	})
}

// scanCall classifies the sources a call is by its arguments: pointer
// conversions to uintptr, %p format strings, pointer-slice sorts.
func scanCall(info *types.Info, call *ast.CallExpr, found func(token.Pos, flow.Taint)) {
	// uintptr(ptr) conversion: the callee of a conversion is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr &&
			len(call.Args) == 1 && pointerLike(info.TypeOf(call.Args[0])) {
			found(call.Pos(), flow.Taint{Rule: "addrvalue",
				Detail: "uintptr conversion of a pointer (address-dependent value)"})
		}
		return
	}
	callee := flow.Callee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "fmt":
		for _, arg := range call.Args {
			tv, ok := info.Types[arg]
			// %%p is a literal "%p", not a verb.
			if ok && tv.Value != nil && tv.Value.Kind() == constant.String &&
				strings.Contains(strings.ReplaceAll(constant.StringVal(tv.Value), "%%", ""), "%p") {
				found(arg.Pos(), flow.Taint{Rule: "addrformat",
					Detail: "fmt call formatting an address with %p"})
				return
			}
		}
	case "sort":
		if (callee.Name() == "Slice" || callee.Name() == "SliceStable") && len(call.Args) > 0 && info.TypeOf(call.Args[0]) != nil {
			if sl, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok && pointerLike(sl.Elem()) {
				found(call.Pos(), flow.Taint{Rule: "ptrsort",
					Detail: "sort." + callee.Name() + " over a slice of pointers (orders by allocation address)"})
			}
		}
	}
}

func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// sourceFunc classifies a use of a standard-library function that reads
// a nondeterminism source. The standard library is never analyzed for
// facts, so these are modeled rather than derived.
func sourceFunc(fn *types.Func) (flow.Taint, bool) {
	if fn.Pkg() == nil {
		return flow.Taint{}, false
	}
	method := fn.Type().(*types.Signature).Recv() != nil
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if !method && (name == "Now" || name == "Since" || name == "Until") {
			return flow.Taint{Rule: "wallclock", Chain: "time." + name,
				Detail: "wall-clock read time." + name}, true
		}
	case "math/rand", "math/rand/v2":
		if !method && name != "New" && name != "NewSource" &&
			name != "NewPCG" && name != "NewChaCha8" && name != "NewZipf" {
			return flow.Taint{Rule: "globalrand", Chain: "rand." + name,
				Detail: "global math/rand source rand." + name}, true
		}
	case "reflect":
		if method && name == "MapKeys" {
			return flow.Taint{Rule: "mapkeys", Chain: "reflect.Value.MapKeys",
				Detail: "reflect.Value.MapKeys (map iteration order)"}, true
		}
	}
	return flow.Taint{}, false
}
