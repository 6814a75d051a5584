package repro

import (
	"context"
	"strings"
	"testing"
)

// defaultHarness composes specs on a default session's machine.
func defaultHarness(tb testing.TB, specs ...WorkloadSpec) *Harness {
	tb.Helper()
	s, err := NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	h, err := s.NewHarness(specs...)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestPublicAPIEndToEnd exercises the façade exactly as the README shows.
func TestPublicAPIEndToEnd(t *testing.T) {
	h := defaultHarness(t, PointerChase{Nodes: 2048, Hops: 500, Instances: 4})
	prof, _, err := h.Profile("chase")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := h.Tasks(img, "chase", Primary, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.NewExecutor(img, ExecConfig{}).RunSymmetric(ts.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Efficiency() <= 0 || st.Cycles == 0 {
		t.Error("empty stats")
	}
}

func TestPublicAPIDualMode(t *testing.T) {
	h := defaultHarness(t,
		HashJoin{BuildRows: 2048, Buckets: 1024, Probes: 100, MatchFraction: 0.7, Instances: 1},
		Compute{Iters: 1_000_000, Instances: 2})
	prof, _, err := h.Profile("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	img, err := h.Instrument(prof, DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := h.Tasks(img, "hashjoin", Primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := h.Tasks(img, "compute", Scavenger, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.NewExecutor(img, ExecConfig{}).RunDualMode(pts.Tasks[0], sts.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := pts.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Episodes == 0 || st.PrimaryLatency == 0 {
		t.Error("dual mode did not hide anything")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ids := s.ExperimentIDs()
	if len(ids) < 14 {
		t.Fatalf("registry short: %v", ids)
	}
	found := false
	for _, id := range ids {
		if id == "E7" {
			found = true
		}
	}
	if !found {
		t.Error("E7 missing")
	}
	// Unknown IDs fail upfront, before any simulation.
	if _, err := s.Run(context.Background(), "Z9"); err == nil {
		t.Error("bogus experiment ran")
	}
}

func TestCostModelsExposed(t *testing.T) {
	if DefaultCostModel().FullCost() >= OSThreadCostModel().FullCost() {
		t.Error("coroutine switches must be cheaper than thread switches")
	}
	if NS(3000) != 1000 {
		t.Error("NS conversion wrong")
	}
}

func TestAssemblerExposed(t *testing.T) {
	prog, err := Assemble(`
        movi r1, 41
        addi r1, r1, 1
        halt
    `)
	if err != nil {
		t.Fatal(err)
	}
	img := Encode(prog)
	back, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instrs) != 3 {
		t.Error("round trip lost instructions")
	}
	if !strings.Contains(Disassemble(back), "movi r1, 41") {
		t.Error("disassembly missing source")
	}
}

func TestManualAnnotationAndSFIExposed(t *testing.T) {
	prog, err := Assemble(`
        movi r2, 4096
        load r1, [r2]
        halt
    `)
	if err != nil {
		t.Fatal(err)
	}
	annotated, _, err := AnnotateLoads(prog, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	hardened, res, err := SFIHarden(annotated, SFIOptions{CoDesign: true, GuardStores: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 1 {
		t.Errorf("folded = %d, want 1 (load follows the inserted yield)", res.Folded)
	}
	if len(hardened.Instrs) != len(annotated.Instrs) {
		t.Error("co-designed guard should not add instructions here")
	}
}
