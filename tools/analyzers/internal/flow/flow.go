// Package flow is the shared substrate of the interprocedural
// analyzers (detflow, barrierguard): `//shsim:` directive parsing, a
// per-package static call graph, and a bottom-up taint propagation
// over it. Cross-package edges are not represented here — the
// analyzers translate them to framework facts (exported where the
// callee lives, imported where the caller lives), which is what makes
// the whole-repo argument compose out of per-package passes.
//
// The call graph is deliberately static: a call edge exists only where
// the callee resolves to a concrete *types.Func (direct calls, method
// calls on concrete receivers, go/defer statements, calls inside
// function literals — attributed to the enclosing declaration).
// Indirect calls through function values and interface methods
// contribute no edges; detflow's backstop scope keeps covering every
// file of the cycle-domain packages themselves, so the gap is the
// documented trade for a zero-dependency analyzer suite.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/framework"
)

// Directive is one parsed `//shsim:<name> <argument>` annotation.
type Directive struct {
	Name string // e.g. "cycle-entry", "noalloc", "nondeterministic-ok"
	Arg  string // rest of the line, trimmed; "" when absent
	Pos  token.Pos
}

const prefix = "//shsim:"

// Directives parses the `//shsim:` annotations of a comment group.
func Directives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, prefix)
		if !ok {
			continue
		}
		name, arg, _ := strings.Cut(text, " ")
		out = append(out, Directive{Name: strings.TrimSpace(name), Arg: strings.TrimSpace(arg), Pos: c.Pos()})
	}
	return out
}

// FuncDirective returns the named directive of a function declaration,
// or false.
func FuncDirective(fd *ast.FuncDecl, name string) (Directive, bool) {
	for _, d := range Directives(fd.Doc) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Misplaced returns the positions of `//shsim:<name>` comments (for any
// of the given names) that are NOT the doc comment of a function
// declaration — annotations only mean something on functions, and a
// detached one silently enforces nothing.
func Misplaced(file *ast.File, names ...string) []Directive {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	attached := map[*ast.CommentGroup]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Doc != nil {
			attached[fd.Doc] = true
		}
		return true
	})
	var out []Directive
	for _, cg := range file.Comments {
		if attached[cg] {
			continue
		}
		for _, d := range Directives(cg) {
			if want[d.Name] {
				out = append(out, d)
			}
		}
	}
	return out
}

// Call is one resolved static call site.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

// Graph is the package-local static call graph.
type Graph struct {
	// Funcs lists the package's function declarations in file order —
	// the deterministic iteration order for everything below.
	Funcs []*types.Func
	// Decl maps a function object to its declaration.
	Decl map[*types.Func]*ast.FuncDecl
	// Calls maps a function to its resolved call sites, in source order.
	Calls map[*types.Func][]Call
}

// BuildGraph constructs the call graph of the pass's package. Test
// files are excluded: the determinism and quantum contracts are about
// simulation code, and tests time themselves freely.
func BuildGraph(pass *framework.Pass) *Graph {
	g := &Graph{
		Decl:  map[*types.Func]*ast.FuncDecl{},
		Calls: map[*types.Func][]Call{},
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Funcs = append(g.Funcs, fn)
			g.Decl[fn] = fd
			var calls []Call
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := Callee(pass.TypesInfo, call); callee != nil {
					calls = append(calls, Call{Callee: callee, Pos: call.Pos()})
				}
				return true
			})
			g.Calls[fn] = calls
		}
	}
	return g
}

// Callee resolves a call expression to the concrete function it
// invokes, or nil for indirect calls, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// FuncName renders a function for diagnostics: "Step" for package-level
// functions, "(*Machine).Step" for methods.
func FuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
		star = "*"
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	if star != "" {
		return "(*" + name + ")." + fn.Name()
	}
	return name + "." + fn.Name()
}

// Taint is one propagated property: which rule fired, the call chain
// that carries it to the function under report, and the human detail of
// the originating construct.
type Taint struct {
	Rule   string
	Chain  string // "caller → callee → …", innermost last
	Detail string
}

// Encode flattens a taint for a fact value; Decode inverts it.
func (t Taint) Encode() string { return t.Rule + "\x1f" + t.Chain + "\x1f" + t.Detail }

// DecodeTaint parses a fact value written by Taint.Encode.
func DecodeTaint(s string) (Taint, bool) {
	parts := strings.SplitN(s, "\x1f", 3)
	if len(parts) != 3 {
		return Taint{}, false
	}
	return Taint{Rule: parts[0], Chain: parts[1], Detail: parts[2]}, true
}

// Propagate computes, for every function in the graph, the first taint
// it transitively reaches. local gives the taints originating inside a
// function's own body (source order); external classifies callees that
// are not declared in this package (imported facts). A taint's chain
// names what lies below the function that holds it — empty for a
// construct, the used function for a source reached by use — and
// Propagate prefixes each function it passes through.
// stop marks functions whose contents are licensed (suppressed or
// structurally privileged): they contribute no taint to their callers.
// Cycles are handled by treating in-progress functions as clean — a
// recursive cycle cannot introduce a source that no function body
// contains.
func Propagate(g *Graph, local map[*types.Func][]Taint,
	external func(*types.Func) (Taint, bool), stop func(*types.Func) bool) map[*types.Func]Taint {

	result := map[*types.Func]Taint{}
	state := map[*types.Func]int{} // 0 unvisited, 1 in progress, 2 done
	record := func(fn *types.Func, t Taint) (Taint, bool) {
		if t.Chain == "" {
			t.Chain = FuncName(fn)
		} else {
			t.Chain = FuncName(fn) + " → " + t.Chain
		}
		result[fn] = t
		return t, true
	}
	var visit func(fn *types.Func) (Taint, bool)
	visit = func(fn *types.Func) (Taint, bool) {
		switch state[fn] {
		case 1:
			return Taint{}, false
		case 2:
			t, ok := result[fn]
			return t, ok
		}
		state[fn] = 1
		defer func() { state[fn] = 2 }()
		if stop != nil && stop(fn) {
			return Taint{}, false
		}
		if ts := local[fn]; len(ts) > 0 {
			return record(fn, ts[0])
		}
		for _, call := range g.Calls[fn] {
			var t Taint
			var tainted bool
			if _, isLocal := g.Decl[call.Callee]; isLocal {
				t, tainted = visit(call.Callee)
			} else if external != nil {
				t, tainted = external(call.Callee)
			}
			if tainted {
				return record(fn, t)
			}
		}
		return Taint{}, false
	}
	for _, fn := range g.Funcs {
		visit(fn)
	}
	return result
}
