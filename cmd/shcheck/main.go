// Command shcheck statically verifies that an instrumented binary image
// is a sound rewrite of its original — the trust gate a production
// binary optimizer runs before shipping (internal/check). It proves the
// properties a positional diff cannot: yield save masks cover every
// live register, branch-target closure, call/ret discipline, insertion
// reachability, and (with -sfi) guard discipline.
//
// Usage:
//
//	shcheck -orig hashjoin.img -inst hashjoin.instrumented.img \
//	        -map hashjoin.map.json
//	shcheck -json -orig a.img -inst b.img        # mapping inferred
//
// Reachability is rooted at the instrumented image's entry symbols
// ("<part>.main", or "main"), at instruction 0 when it has none.
//
// Exit status: 0 when the image is clean, 1 when verification found
// diagnostics, 2 on usage or I/O errors. Findings go to stdout, one per
// line (or one JSON report with -json); nothing is printed for a clean
// image unless -v.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/sfi"
)

func main() {
	fs := flag.NewFlagSet("shcheck", flag.ExitOnError)
	origPath := fs.String("orig", "", "original image (required)")
	instPath := fs.String("inst", "", "instrumented image to verify (required)")
	mapPath := fs.String("map", "", "mapping report JSON from shinstr -report (default: infer the mapping)")
	sfiMode := fs.Bool("sfi", false, "enforce SFI guard discipline (every load/store CHECKed)")
	codesign := fs.Bool("codesign", false, "with -sfi: accept guards folded into yield shadows")
	guardStores := fs.Bool("guardstores", true, "with -sfi: require guards on stores too")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON instead of diagnostics")
	verbose := fs.Bool("v", false, "print the summary line even for a clean image")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	code, err := run(os.Stdout, *origPath, *instPath, *mapPath, *sfiMode, *codesign, *guardStores, *jsonOut, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shcheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(out io.Writer, origPath, instPath, mapPath string,
	sfiMode, codesign, guardStores, jsonOut, verbose bool) (int, error) {
	if origPath == "" || instPath == "" {
		return 0, fmt.Errorf("-orig and -inst are required")
	}
	orig, err := cli.ReadImage(origPath)
	if err != nil {
		return 0, err
	}
	inst, err := cli.ReadImage(instPath)
	if err != nil {
		return 0, err
	}

	var opts check.Options
	var oldToNew []int
	if mapPath != "" {
		f, err := os.Open(mapPath)
		if err != nil {
			return 0, err
		}
		m, err := check.LoadMapFile(f)
		f.Close()
		if err != nil {
			return 0, err
		}
		oldToNew = m.OldToNew
	} else if oldToNew, err = check.InferMap(orig, inst); err != nil {
		return 0, fmt.Errorf("check: cannot infer old-to-new mapping: %w", err)
	}
	if sfiMode {
		opts.SFI = &sfi.Options{CoDesign: codesign, GuardStores: guardStores}
	}

	rep := check.Program(orig, inst, oldToNew, opts)

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
	} else if !rep.Clean() || verbose {
		fmt.Fprint(out, rep.String())
	}
	if rep.Clean() {
		return 0, nil
	}
	return 1, nil
}
