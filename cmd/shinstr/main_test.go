package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/isa"
)

// chase is the scenario both tests rebuild: the README walkthrough's
// workload at two instances, so profiling stays quick.
var chase = cli.WorkloadFlags{Workload: "chase", Instances: 2, Seed: 20230626}

// writeProfile profiles the scenario as shprof does and writes the
// profile JSON into dir, with its ProgramLen shifted by skew.
func writeProfile(t *testing.T, dir string, skew int) string {
	t.Helper()
	wf := chase
	h, part, err := wf.Harness()
	if err != nil {
		t.Fatal(err)
	}
	prof, _, _, err := h.ProfileParts(h.Mach.Sampling, part)
	if err != nil {
		t.Fatal(err)
	}
	prof.ProgramLen += skew
	data, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "chase.profile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadImage(t *testing.T, path string) *isa.Program {
	t.Helper()
	prog, err := cli.ReadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunWritesVerifiedImage drives the README's shprof → shinstr →
// shcheck flow in process: the image, mapping report and original image
// shinstr writes must verify clean under check.Program.
func TestRunWritesVerifiedImage(t *testing.T) {
	dir := t.TempDir()
	wf := chase
	out := filepath.Join(dir, "chase.img")
	report := filepath.Join(dir, "chase.map.json")
	origOut := filepath.Join(dir, "chase.orig.img")
	if err := run(&wf, writeProfile(t, dir, 0), out, "costbenefit", 0.5, 8, true, true, 300, report, origOut); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(report)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := check.LoadMapFile(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Program(loadImage(t, origOut), loadImage(t, out), m.OldToNew, check.Options{})
	if !rep.Clean() || rep.Inserted == 0 {
		t.Fatalf("written image is not a clean instrumented rewrite:\n%s", rep)
	}
}

// TestRunRefusesMismatchedProfile: a profile of another binary
// (ProgramLen off by one) is refused before anything is written.
func TestRunRefusesMismatchedProfile(t *testing.T) {
	dir := t.TempDir()
	wf := chase
	out := filepath.Join(dir, "chase.img")
	err := run(&wf, writeProfile(t, dir, 1), out, "costbenefit", 0.5, 8, true, true, 300, "", "")
	if err == nil || !strings.Contains(err.Error(), "must match shprof") {
		t.Fatalf("mismatched profile: got %v, want the ProgramLen refusal", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("image written for a mismatched profile (stat: %v)", err)
	}
}
