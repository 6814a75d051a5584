// Package barrierguard turns the cycle-quantum kernel's bound-weave
// protocol (internal/machine + mem.SharedLLC, ARCHITECTURE.md §10)
// from a code-review convention into a machine-checked structural
// property. The protocol: during a quantum, cores may only READ the
// committed shared-LLC tag state (plus the contention figures frozen at
// the last barrier); tag state MUTATES only between quanta, at the
// barrier's Commit. That is what makes the result independent of the
// order cores run within a quantum; barrierguard proves at vet time
// that no code reachable from a core's quantum can even name a mutating
// method.
//
// # Annotations
//
// Shared-state methods are classified where they are defined:
//
//	//shsim:llc-read    safe during a quantum (probes committed state,
//	                    touches only the view's core-private log)
//	//shsim:llc-mutate  commits or reshapes shared state; only legal
//	                    from the barrier (or setup, before the first
//	                    quantum)
//
// Once one method of a type is classified, every method of that type
// must be (rule "unclassified") — an unclassified method on a shared
// type is exactly where the next mutation sneaks in.
//
// Phase roots are annotated where the kernel's phases begin:
//
//	//shsim:quantum-phase  runs a core's quantum; the
//	                       transitive call graph below it must not
//	                       reach an llc-mutate method (rule
//	                       "quantum-mutate")
//	//shsim:commit-phase   the barrier's commit step; licensed to call
//	                       mutating methods, and stops propagation
//
// Reachability crosses packages through framework facts: the package
// that defines a helper exports "this helper reaches SharedLLC.Commit",
// and the package that runs it under a quantum root turns the fact
// into a diagnostic with the full call chain.
package barrierguard

import (
	"go/types"
	"strings"

	"repro/tools/analyzers/framework"
	"repro/tools/analyzers/internal/flow"
)

// Fact kinds exported by barrierguard.
const (
	// FactClass maps an annotated method to "read", "mutate", or
	// "unclassified" (a method of a classified type missing its own
	// annotation — treated as mutating, because the safe reading is
	// the one that fails closed).
	FactClass = "barrierguard.llc"
	// FactReaches maps a function to the encoded flow.Taint carrying
	// the mutate-reaching call chain.
	FactReaches = "barrierguard.reaches"
)

// Directives recognized by barrierguard.
const (
	DirRead    = "llc-read"
	DirMutate  = "llc-mutate"
	DirQuantum = "quantum-phase"
	DirCommit  = "commit-phase"
)

var Analyzer = &framework.Analyzer{
	Name: "barrierguard",
	Doc: "prove the cycle-quantum LLC protocol: quantum-phase code reaches no mutating shared-LLC method\n\n" +
		"Methods annotated //shsim:llc-read / //shsim:llc-mutate classify the shared surface; functions " +
		"annotated //shsim:quantum-phase (a core's quantum) must not transitively reach a mutating " +
		"method, which only //shsim:commit-phase code (the barrier) may call.",
	Run: run,
}

func run(pass *framework.Pass) error {
	g := flow.BuildGraph(pass)

	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range flow.Misplaced(file, DirRead, DirMutate, DirQuantum, DirCommit) {
			pass.ReportRule(d.Pos, "misplaced",
				"//shsim:%s must be the doc comment of a function or method declaration", d.Name)
		}
	}

	// Classify this package's annotated methods and enforce closure:
	// every method of a type with one classified method is classified.
	class := map[*types.Func]string{} // local method -> read|mutate|unclassified
	classifiedTypes := map[*types.TypeName]bool{}
	for _, fn := range g.Funcs {
		fd := g.Decl[fn]
		_, isRead := flow.FuncDirective(fd, DirRead)
		_, isMutate := flow.FuncDirective(fd, DirMutate)
		switch {
		case isRead && isMutate:
			pass.ReportRule(fd.Name.Pos(), "conflict",
				"%s annotated both //shsim:llc-read and //shsim:llc-mutate", flow.FuncName(fn))
		case isRead:
			class[fn] = "read"
		case isMutate:
			class[fn] = "mutate"
		default:
			continue
		}
		if tn := receiverTypeName(fn); tn != nil {
			classifiedTypes[tn] = true
		} else {
			pass.ReportRule(fd.Name.Pos(), "misplaced",
				"//shsim:llc-read / //shsim:llc-mutate classify methods; %s has no receiver", flow.FuncName(fn))
		}
	}
	for _, fn := range g.Funcs {
		if _, done := class[fn]; done {
			continue
		}
		if tn := receiverTypeName(fn); tn != nil && classifiedTypes[tn] {
			class[fn] = "unclassified"
			pass.ReportRule(g.Decl[fn].Name.Pos(), "unclassified",
				"method %s of shared type %s has no //shsim:llc-read or //shsim:llc-mutate annotation "+
					"(every method of a classified type must be classified; unclassified is treated as mutating)",
				flow.FuncName(fn), tn.Name())
		}
	}
	for fn, c := range class {
		pass.Facts.Export(FactClass, framework.ObjectKey(fn), c)
	}

	// classOf resolves a callee's classification, local or imported.
	classOf := func(callee *types.Func) (string, bool) {
		if c, ok := class[callee]; ok {
			return c, true
		}
		c, ok := pass.Facts.LookupFunc(FactClass, callee)
		return c, ok
	}

	// Phase roots and licensed commit code.
	commit := map[*types.Func]bool{}
	quantum := map[*types.Func]bool{}
	for _, fn := range g.Funcs {
		fd := g.Decl[fn]
		_, isCommit := flow.FuncDirective(fd, DirCommit)
		_, isQuantum := flow.FuncDirective(fd, DirQuantum)
		if isCommit && isQuantum {
			pass.ReportRule(fd.Name.Pos(), "conflict",
				"%s annotated both //shsim:quantum-phase and //shsim:commit-phase", flow.FuncName(fn))
			continue
		}
		commit[fn] = isCommit
		quantum[fn] = isQuantum
	}

	// Local sources: call sites whose callee mutates (or is an
	// unclassified method of a shared type — fail closed).
	local := map[*types.Func][]flow.Taint{}
	for _, fn := range g.Funcs {
		for _, call := range g.Calls[fn] {
			c, ok := classOf(call.Callee)
			if !ok || c == "read" {
				continue
			}
			detail := "mutating shared-LLC method " + flow.FuncName(call.Callee)
			if c == "unclassified" {
				detail = "unclassified shared-LLC method " + flow.FuncName(call.Callee) + " (treated as mutating)"
			}
			local[fn] = append(local[fn], flow.Taint{
				Rule:   "quantum-mutate",
				Chain:  flow.FuncName(call.Callee),
				Detail: detail,
			})
		}
	}

	reaches := flow.Propagate(g, local,
		func(callee *types.Func) (flow.Taint, bool) {
			if v, ok := pass.Facts.LookupFunc(FactReaches, callee); ok {
				if t, ok := flow.DecodeTaint(v); ok {
					return t, true
				}
			}
			return flow.Taint{}, false
		},
		func(fn *types.Func) bool {
			// Commit-phase code is licensed to mutate; mutating methods
			// themselves are the annotated surface, not a violation.
			return commit[fn] || class[fn] == "mutate"
		})

	for _, fn := range g.Funcs {
		t, tainted := reaches[fn]
		if tainted {
			pass.Facts.Export(FactReaches, framework.ObjectKey(fn), t.Encode())
		}
		if quantum[fn] && tainted {
			pass.ReportRule(g.Decl[fn].Name.Pos(), t.Rule,
				"quantum-phase root %s reaches %s during a quantum (via %s); "+
					"shared tag state may change only at the barrier (//shsim:commit-phase)",
				flow.FuncName(fn), t.Detail, t.Chain)
		}
	}
	return nil
}

// receiverTypeName returns the defining TypeName of a method's receiver
// type, or nil for package-level functions.
func receiverTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
