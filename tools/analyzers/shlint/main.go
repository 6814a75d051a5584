// Command shlint is the repository's custom vet tool. It bundles the
// three project-specific analyzers behind the `go vet -vettool`
// protocol:
//
//	detflow       determinism contract: cycle-domain entry points reach
//	              no nondeterminism source (fact-propagated), and no
//	              file of a cycle-domain package contains one
//	barrierguard  cycle-quantum LLC protocol: no mutating shared-LLC
//	              method reachable from quantum-phase code
//	allocguard    always-allocating constructs in //shsim:noalloc
//	              functions (AST layer)
//
//	go build -o bin/shlint repro/tools/analyzers/shlint
//	go vet -vettool=$(pwd)/bin/shlint ./...
//	go vet -vettool=$(pwd)/bin/shlint -run=detflow -json ./...
//
// The binary has a second mode outside the vet protocol:
//
//	shlint -allocgate [packages...]
//
// runs the escape-analysis layer of the allocation gate: recompile the
// named packages (default ./...) with -gcflags=-m=2 and fail on heap
// allocations or lost inlines in //shsim:noalloc functions.
//
// scripts/lint.sh wraps both modes and is the gating CI entry point.
// See the analyzer package docs for what each check enforces and why.
package main

import (
	"fmt"
	"os"

	"repro/tools/analyzers/allocguard"
	"repro/tools/analyzers/barrierguard"
	"repro/tools/analyzers/detflow"
	"repro/tools/analyzers/framework"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "-allocgate" {
		dir, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := allocguard.Gate(dir, os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "allocgate: %d violation(s)\n", n)
			os.Exit(2)
		}
		return
	}
	framework.Main(
		detflow.Analyzer,
		barrierguard.Analyzer,
		allocguard.Analyzer,
	)
}
