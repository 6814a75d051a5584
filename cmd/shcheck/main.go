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
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/isa"
	"repro/internal/sfi"
)

func main() {
	fs := flag.NewFlagSet("shcheck", flag.ExitOnError)
	origPath := fs.String("orig", "", "original image (required)")
	instPath := fs.String("inst", "", "instrumented image to verify (required)")
	mapPath := fs.String("map", "", "mapping report JSON from shinstr -report (default: infer the mapping)")
	entriesFlag := fs.String("entries", "", "comma-separated entry-point indices in the instrumented image (overrides -map; default 0)")
	sfiMode := fs.Bool("sfi", false, "enforce SFI guard discipline (every load/store CHECKed)")
	codesign := fs.Bool("codesign", false, "with -sfi: accept guards folded into yield shadows")
	guardStores := fs.Bool("guardstores", true, "with -sfi: require guards on stores too")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON instead of diagnostics")
	verbose := fs.Bool("v", false, "print the summary line even for a clean image")
	fs.Parse(os.Args[1:])
	cli.NoArgs(fs)

	code, err := run(os.Stdout, *origPath, *instPath, *mapPath, *entriesFlag, *sfiMode, *codesign, *guardStores, *jsonOut, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shcheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(out io.Writer, origPath, instPath, mapPath, entriesFlag string,
	sfiMode, codesign, guardStores, jsonOut, verbose bool) (int, error) {
	if origPath == "" || instPath == "" {
		return 0, fmt.Errorf("-orig and -inst are required")
	}
	origImg, err := loadImage(origPath)
	if err != nil {
		return 0, err
	}
	instImg, err := loadImage(instPath)
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
		opts.Entries = m.Entries
	}
	if entriesFlag != "" {
		opts.Entries, err = parseEntries(entriesFlag)
		if err != nil {
			return 0, err
		}
	}
	if sfiMode {
		opts.SFI = &sfi.Options{CoDesign: codesign, GuardStores: guardStores}
	}

	rep, err := check.Image(origImg, instImg, oldToNew, opts)
	if err != nil {
		return 0, err
	}

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

func loadImage(path string) (*isa.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return isa.LoadImage(f)
}

func parseEntries(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad entry %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
