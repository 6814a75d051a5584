package check

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/sfi"
)

// hotProfile fabricates a profile marking each pc as a hot DRAM-missing
// load, the same shape the instrument tests use.
func hotProfile(progLen int, hotPCs ...int) *profile.Profile {
	var samples []pebs.Sample
	for _, pc := range hotPCs {
		samples = append(samples,
			pebs.Sample{Event: pebs.EvLoadRetired, PC: pc, Weight: 1000},
			pebs.Sample{Event: pebs.EvLoadL2Miss, PC: pc, Weight: 900},
			pebs.Sample{Event: pebs.EvLoadL3Miss, PC: pc, Weight: 900},
			pebs.Sample{Event: pebs.EvStallCycle, PC: pc, Weight: 250000},
		)
	}
	return profile.Build(progLen, samples, nil)
}

const chaseSrc = `
        movi r3, 100        ; 0
    loop:
        load r1, [r1]       ; 1: hot pointer chase
        addi r3, r3, -1     ; 2
        cmpi r3, 0          ; 3
        jgt loop            ; 4
        halt                ; 5
`

const coalesceSrc = `
        movi r2, 4096       ; 0
        movi r7, 50         ; 1
    loop:
        load r3, [r2]       ; 2
        load r4, [r2+64]    ; 3
        load r5, [r2+128]   ; 4
        add r1, r3, r4      ; 5
        add r1, r1, r5      ; 6
        addi r2, r2, 192    ; 7
        addi r7, r7, -1     ; 8
        cmpi r7, 0          ; 9
        jgt loop            ; 10
        halt                ; 11
`

// instrumented runs src through the full pipeline and returns everything
// a verification needs.
func instrumented(t *testing.T, src string, hotPCs ...int) (orig, final *isa.Program, oldToNew []int) {
	t.Helper()
	orig = isa.MustAssemble(src)
	prof := hotProfile(len(orig.Instrs), hotPCs...)
	opts := instrument.DefaultPipelineOptions()
	opts.Scavenger.TargetInterval = 50
	img, res, err := instrument.InstrumentImage(isa.Encode(orig), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	return orig, isa.MustDecode(img), res.OldToNew
}

func TestPipelineOutputIsClean(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		hot  []int
	}{
		{"chase", chaseSrc, []int{1}},
		{"coalesce", coalesceSrc, []int{2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, final, oldToNew := instrumented(t, tc.src, tc.hot...)
			rep := Program(orig, final, oldToNew, Options{})
			if !rep.Clean() {
				t.Fatalf("pipeline output not clean:\n%s", rep)
			}
			if rep.Checked != len(final.Instrs) {
				t.Errorf("Checked = %d, want %d", rep.Checked, len(final.Instrs))
			}
			if rep.Inserted != len(final.Instrs)-len(orig.Instrs) {
				t.Errorf("Inserted = %d, want %d", rep.Inserted, len(final.Instrs)-len(orig.Instrs))
			}
			if err := rep.Err(); err != nil {
				t.Errorf("clean report must have nil Err, got %v", err)
			}
		})
	}
}

// TestSFIHardenedOutputIsClean composes the pipeline with SFI hardening
// (the E12 composition) and verifies the composed mapping passes,
// including the guard-discipline rule.
func TestSFIHardenedOutputIsClean(t *testing.T) {
	for _, codesign := range []bool{false, true} {
		orig, inst, oldToNew := instrumented(t, chaseSrc, 1)
		sfiOpts := sfi.Options{CoDesign: codesign, GuardStores: true}
		hard, sres, err := sfi.Harden(inst, sfiOpts)
		if err != nil {
			t.Fatal(err)
		}
		composed := make([]int, len(oldToNew))
		for i, nw := range oldToNew {
			composed[i] = sres.OldToNew[nw]
		}
		rep := Program(orig, hard, composed, Options{SFI: &sfiOpts})
		if !rep.Clean() {
			t.Fatalf("codesign=%v: SFI-hardened output not clean:\n%s", codesign, rep)
		}
	}
}

func TestIdentityRewriteIsClean(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	ident := make([]int, len(prog.Instrs))
	for i := range ident {
		ident[i] = i
	}
	rep := Program(prog, prog, ident, Options{})
	if !rep.Clean() {
		t.Fatalf("identity rewrite not clean:\n%s", rep)
	}
}

func TestInferMapMatchesPipelineMapping(t *testing.T) {
	orig, final, oldToNew := instrumented(t, coalesceSrc, 2, 3, 4)
	inferred, err := InferMap(orig, final)
	if err != nil {
		t.Fatal(err)
	}
	// The inferred mapping may differ from the pipeline's only where an
	// original is indistinguishable from an adjacent insertion; either
	// way it must verify clean.
	if rep := Program(orig, final, inferred, Options{}); !rep.Clean() {
		t.Fatalf("inferred mapping does not verify:\n%s", rep)
	}
	if len(inferred) != len(oldToNew) {
		t.Fatalf("inferred length %d, want %d", len(inferred), len(oldToNew))
	}
}

func TestInferMapRejectsEffectfulExtra(t *testing.T) {
	orig := isa.MustAssemble("movi r1, 1\nhalt")
	bad := isa.MustAssemble("movi r1, 1\naddi r1, r1, 1\nhalt")
	if _, err := InferMap(orig, bad); err == nil {
		t.Error("effectful extra instruction must fail inference")
	}
	trunc := isa.MustAssemble("movi r1, 1")
	if _, err := InferMap(orig, trunc); err == nil {
		t.Error("truncated rewritten program must fail inference")
	}
	// Effectful trailing instruction after all originals matched.
	trail := isa.MustAssemble("movi r1, 1\nhalt\naddi r1, r1, 1")
	if _, err := InferMap(orig, trail); err == nil {
		t.Error("effectful trailing instruction must fail inference")
	}
}

func TestReportMechanics(t *testing.T) {
	rep := &Report{Checked: 10, Inserted: 2}
	rep.add(RuleLiveness, SevError, 4, 2, "mask omits %v", isa.RegMask(1<<3))
	rep.add(RuleYieldPolicy, SevWarning, -1, -1, "detached yield")
	if rep.Clean() {
		t.Error("report with findings is not clean")
	}
	if rep.Errors() != 1 || rep.Warnings() != 1 {
		t.Errorf("errors=%d warnings=%d, want 1/1", rep.Errors(), rep.Warnings())
	}
	if !rep.HasRule(RuleLiveness) || rep.HasRule(RuleSFI) {
		t.Error("HasRule wrong")
	}
	err := rep.Err()
	if err == nil {
		t.Fatal("non-clean report must produce an error")
	}
	if !strings.Contains(err.Error(), "liveness") {
		t.Errorf("error does not identify the rule: %v", err)
	}
	s := rep.String()
	if !strings.Contains(s, "error: [liveness] pc=4 (old=2)") {
		t.Errorf("diagnostic rendering wrong:\n%s", s)
	}
	if !strings.Contains(s, "checked 10 instructions (2 inserted): 1 errors, 1 warnings") {
		t.Errorf("summary rendering wrong:\n%s", s)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{Checked: 5, Inserted: 1}
	rep.add(RuleSFI, SevError, 3, -1, "load unguarded")
	rep.add(RuleYieldPolicy, SevWarning, 2, 1, "detached")
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Errorf("severity not marshaled by name: %s", b)
	}
	var got Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Diags) != 2 || got.Diags[0].Severity != SevError || got.Diags[1].Severity != SevWarning {
		t.Errorf("round trip lost data: %+v", got)
	}
	var sev Severity
	if err := json.Unmarshal([]byte(`"bogus"`), &sev); err == nil {
		t.Error("unknown severity name must fail to unmarshal")
	}
}
