// Package allocguard is the compile-time complement of the
// AllocsPerRun runtime guards: functions annotated `//shsim:noalloc`
// (the per-cycle hot paths — cpu.Core.RunBlock and its observer hook, the
// superblock retire loop, the mem.Hierarchy access paths, the exec and
// smt scheduling loops) are proven allocation-free in two layers.
//
// The vet analyzer in this file catches the constructs that always
// heap-allocate, at the AST, with precise positions:
//
//	make        make(map[...]...) / make(chan ...) — always heap
//	goroutine   go statements — a new goroutine is an allocation (and
//	            a determinism hazard the cycle domain handles at the
//	            kernel layer only)
//	fmtcall     calls into package fmt — the ...any boxing allocates
//
// The escape-analysis gate (gate.go, `shlint -allocgate`, wired into
// scripts/lint.sh) is the sound layer: it recompiles the annotated
// packages with `-gcflags=-m=2` and fails on any "escapes to heap" /
// "moved to heap" diagnostic inside an annotated function, and on a
// lost inline for functions annotated `//shsim:noalloc inline`.
//
// `//shsim:alloc-ok <reason>` on the offending line suppresses both
// layers for cold paths (an error return constructed once per run);
// the reason is mandatory.
package allocguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/internal/flow"
)

// Directives recognized by allocguard.
const (
	DirNoalloc = "noalloc"
	DirAllowed = "alloc-ok"
)

var Analyzer = &framework.Analyzer{
	Name: "allocguard",
	Doc: "forbid always-allocating constructs in //shsim:noalloc functions\n\n" +
		"AST layer of the hot-path allocation gate; `shlint -allocgate` adds the escape-analysis proof. " +
		"Suppress cold paths line-by-line with //shsim:alloc-ok <reason>.",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range flow.Misplaced(file, DirNoalloc) {
			pass.ReportRule(d.Pos, "misplaced",
				"//shsim:noalloc must be the doc comment of a function declaration")
		}
		allowed := allowedLines(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d, ok := flow.FuncDirective(fd, DirNoalloc)
			if !ok {
				continue
			}
			if d.Arg != "" && d.Arg != "inline" {
				pass.ReportRule(d.Pos, "misplaced",
					"//shsim:noalloc takes no argument or \"inline\", got %q", d.Arg)
			}
			checkBody(pass, fd, allowed)
		}
	}
	return nil
}

// allowedLines collects the lines carrying a //shsim:alloc-ok
// suppression, reporting the ones with no written reason.
func allowedLines(pass *framework.Pass, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, d := range flow.Directives(cg) {
			if d.Name != DirAllowed {
				continue
			}
			if d.Arg == "" {
				pass.ReportRule(d.Pos, "suppression",
					"//shsim:alloc-ok requires a written reason")
				continue
			}
			out[pass.Fset.Position(d.Pos).Line] = true
		}
	}
	return out
}

func checkBody(pass *framework.Pass, fd *ast.FuncDecl, allowed map[int]bool) {
	info := pass.TypesInfo
	report := func(pos token.Pos, rule, format string, args ...any) {
		if allowed[pass.Fset.Position(pos).Line] {
			return
		}
		pass.ReportRule(pos, rule, format, args...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "goroutine",
				"go statement in //shsim:noalloc function %s: goroutine start allocates", flow.FuncName(funcOf(pass, fd)))
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(n.Args) > 0 {
					if tv, ok := info.Types[n.Args[0]]; ok && alwaysHeap(tv.Type) {
						report(n.Pos(), "make",
							"make of %s in //shsim:noalloc function %s always heap-allocates",
							tv.Type.String(), flow.FuncName(funcOf(pass, fd)))
					}
				}
				return true
			}
			if callee := flow.Callee(info, n); callee != nil &&
				callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				report(n.Pos(), "fmtcall",
					"fmt.%s call in //shsim:noalloc function %s: variadic boxing allocates",
					callee.Name(), flow.FuncName(funcOf(pass, fd)))
			}
		}
		return true
	})
}

func funcOf(pass *framework.Pass, fd *ast.FuncDecl) *types.Func {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		// Unresolvable declarations cannot occur in a type-checked
		// package; keep diagnostics alive regardless.
		return types.NewFunc(token.NoPos, nil, fd.Name.Name, types.NewSignatureType(nil, nil, nil, nil, nil, false))
	}
	return fn
}

func alwaysHeap(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return true
	}
	return false
}
