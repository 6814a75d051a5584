package repro

import (
	"errors"
	"go/build"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// layers is ARCHITECTURE §6's package order, bottom up, one slice per
// layer: the side leaves stats and trace, then isa and mem, the chain
// from coro to runner with bincfg and workloads beside coro and metrics
// on cpu, and at the top the root package with cli, the tools' flag and
// file plumbing, beside it. Names are import paths below
// repro/internal/, except "repro" for the root.
var layers = [][]string{
	{"stats", "trace"},
	{"isa", "mem"},
	{"coro", "bincfg", "workloads"},
	{"cpu"},
	{"metrics"},
	{"pebs", "exec"},
	{"profile", "smt"},
	{"instrument"},
	{"sfi", "baselines"},
	{"check"},
	{"core"},
	{"machine"},
	{"service"},
	{"experiments"},
	{"runner"},
	{"repro", "cli"},
}

// modulePackages returns every package of the module by import path,
// as go/build reads it for this platform, testdata trees left out.
func modulePackages(t *testing.T) map[string]*build.Package {
	t.Helper()
	pkgs := map[string]*build.Package{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		pkgs[path.Join("repro", filepath.ToSlash(dir))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestSMTStaysABenchShim: internal/smt is the benchmark's shim over
// exec.SMT (ROADMAP item 1(g)). Product code configures SMT like every
// other discipline, through exec.Config and exec.SMTSlice, so no package
// but bench imports it outside tests.
func TestSMTStaysABenchShim(t *testing.T) {
	for importPath, p := range modulePackages(t) {
		if importPath == "repro/bench" {
			continue
		}
		for _, imp := range p.Imports {
			if imp == "repro/internal/smt" {
				t.Errorf("%s imports repro/internal/smt outside its tests", importPath)
			}
		}
	}
}

// TestImportsFollowTheLayers holds ARCHITECTURE §6: every internal
// package, and the root, imports module packages only from layers below
// its own, so a lower layer never imports upward and packages §6 draws
// side by side do not import each other. A new internal package needs a
// place in §6 and in layers, and a name in layers must be a package.
func TestImportsFollowTheLayers(t *testing.T) {
	layer := map[string]int{}
	for i, names := range layers {
		for _, name := range names {
			if name != "repro" {
				name = "repro/internal/" + name
			}
			layer[name] = i
		}
	}
	inModule := func(importPath string) bool {
		return importPath == "repro" || strings.HasPrefix(importPath, "repro/")
	}
	pkgs := modulePackages(t)
	for name := range layer {
		if pkgs[name] == nil {
			t.Errorf("layers names %s, which is no package of the module", name)
		}
	}
	for importPath, p := range pkgs {
		if importPath != "repro" && !strings.HasPrefix(importPath, "repro/internal/") {
			continue
		}
		at, ok := layer[importPath]
		if !ok {
			t.Errorf("%s has no layer: place it in ARCHITECTURE §6 and in layers", importPath)
			continue
		}
		for _, imp := range p.Imports {
			below, ok := layer[imp]
			switch {
			case !ok && inModule(imp):
				t.Errorf("%s imports %s, which has no layer in §6", importPath, imp)
			case ok && below >= at:
				t.Errorf("%s (layer %d) imports %s (layer %d): §6 allows only lower layers", importPath, at, imp, below)
			}
		}
	}
}
