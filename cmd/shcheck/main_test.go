package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/workloads"
)

const chaseSrc = `
        movi r3, 100
    loop:
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
`

// fixture instruments chaseSrc and writes orig/inst/map files into dir,
// returning their paths plus the decoded programs for tampering.
func fixture(t *testing.T, dir string) (origPath, instPath, mapPath string, final *isa.Program, oldToNew []int) {
	t.Helper()
	orig := isa.MustAssemble(chaseSrc)
	var samples []pebs.Sample
	samples = append(samples,
		pebs.Sample{Event: pebs.EvLoadRetired, PC: 1, Weight: 1000},
		pebs.Sample{Event: pebs.EvLoadL2Miss, PC: 1, Weight: 900},
		pebs.Sample{Event: pebs.EvLoadL3Miss, PC: 1, Weight: 900},
		pebs.Sample{Event: pebs.EvStallCycle, PC: 1, Weight: 250000},
	)
	prof := profile.Build(len(orig.Instrs), samples, nil)
	img, res, err := instrument.InstrumentImage(isa.Encode(orig), prof, instrument.DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	origPath = writeImage(t, filepath.Join(dir, "orig.img"), orig)
	final = isa.MustDecode(img)
	instPath = writeImage(t, filepath.Join(dir, "inst.img"), final)
	mapPath = filepath.Join(dir, "map.json")
	m := check.MapFile{OldToNew: res.OldToNew}
	if err := cli.WriteFile(mapPath, m.Save); err != nil {
		t.Fatal(err)
	}
	return origPath, instPath, mapPath, final, res.OldToNew
}

func writeImage(t *testing.T, path string, prog *isa.Program) string {
	t.Helper()
	if err := cli.WriteFile(path, func(w io.Writer) error { return isa.SaveImage(w, prog) }); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCleanImageExitsZero(t *testing.T) {
	dir := t.TempDir()
	origPath, instPath, mapPath, _, _ := fixture(t, dir)
	var out bytes.Buffer
	code, err := run(&out, origPath, instPath, mapPath, false, false, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean image exit code %d, output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean image should print nothing without -v, got:\n%s", out.String())
	}
	// -v prints the summary.
	out.Reset()
	if _, err := run(&out, origPath, instPath, mapPath, false, false, true, false, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 errors, 0 warnings") {
		t.Errorf("verbose summary missing:\n%s", out.String())
	}
}

func TestInferredMappingWorksWithoutMapFile(t *testing.T) {
	dir := t.TempDir()
	origPath, instPath, _, _, _ := fixture(t, dir)
	var out bytes.Buffer
	code, err := run(&out, origPath, instPath, "", false, false, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("inferred-map run exit code %d:\n%s", code, out.String())
	}
}

func TestTamperedImageExitsOneWithRule(t *testing.T) {
	dir := t.TempDir()
	origPath, _, mapPath, final, oldToNew := fixture(t, dir)
	bad := final.Clone()
	// Clear a live-mask bit on the primary yield.
	for p, in := range bad.Instrs {
		if in.Op == isa.OpYield {
			bad.Instrs[p].Imm &^= int64(1) << 3
			break
		}
	}
	_ = oldToNew
	badPath := writeImage(t, filepath.Join(dir, "bad.img"), bad)
	var out bytes.Buffer
	code, err := run(&out, origPath, badPath, mapPath, false, false, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("tampered image exit code %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[liveness]") {
		t.Errorf("diagnostic does not name the rule:\n%s", out.String())
	}
}

func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	origPath, _, mapPath, final, _ := fixture(t, dir)
	bad := final.Clone()
	for p, in := range bad.Instrs {
		if in.Op == isa.OpYield {
			bad.Instrs[p].Imm &^= int64(1) << 3
			break
		}
	}
	badPath := writeImage(t, filepath.Join(dir, "bad.img"), bad)
	var out bytes.Buffer
	code, err := run(&out, origPath, badPath, mapPath, false, false, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	var rep check.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a JSON report: %v\n%s", err, out.String())
	}
	if !rep.HasRule(check.RuleLiveness) {
		t.Errorf("JSON report missing liveness finding: %+v", rep)
	}
}

func TestUsageAndIOErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(&out, "", "", "", false, false, true, false, false); err == nil {
		t.Error("missing required flags must error")
	}
	if _, err := run(&out, "/nonexistent.img", "/nonexistent.img", "", false, false, true, false, false); err == nil {
		t.Error("unreadable image must error")
	}
	dir := t.TempDir()
	origPath, instPath, _, _, _ := fixture(t, dir)
	badMap := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badMap, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(&out, origPath, instPath, badMap, false, false, true, false, false); err == nil {
		t.Error("malformed map file must error")
	}
}

// A two-part image Harness.Instrument built verifies clean without a
// map: reachability roots at both parts' "<part>.main" symbols, so the
// compute part's scavenger yields are reachable.
func TestTwoPartImageVerifiesWithoutMap(t *testing.T) {
	h, err := core.NewHarness(core.DefaultMachine(),
		workloads.PointerChase{Nodes: 2048, Hops: 300, Instances: 2},
		workloads.Compute{Iters: 300, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, h.Mach.PipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if img.Pipe.Scavenger == nil || len(img.Pipe.Scavenger.CondYieldPCs) == 0 {
		t.Fatal("no scavenger yields to reach")
	}
	dir := t.TempDir()
	origPath := writeImage(t, filepath.Join(dir, "orig.img"), h.Sc.Prog)
	instPath := writeImage(t, filepath.Join(dir, "inst.img"), img.Prog)
	var out bytes.Buffer
	code, err := run(&out, origPath, instPath, "", false, false, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out.String())
	}
}
