package instrument

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/profile"
)

func TestRewriterRelocation(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 10     ; 0
    loop:
        load r1, [r2]   ; 1
        addi r2, r2, 8  ; 2
        cmpi r2, 100    ; 3
        jlt loop        ; 4 -> 1
        halt            ; 5
    `)
	rw := NewRewriter(prog)
	rw.InsertBefore(1, isa.Instr{Op: isa.OpPrefetch, Rs1: 2}, isa.Instr{Op: isa.OpYield, Imm: int64(isa.AllRegs)})
	out, oldToNew, err := rw.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Instrs) != 8 {
		t.Fatalf("got %d instructions, want 8", len(out.Instrs))
	}
	// The jump must now target the prefetch (group start), index 1.
	jlt := out.Instrs[oldToNew[4]]
	if jlt.Op != isa.OpJlt || jlt.Target() != 1 {
		t.Errorf("relocated branch: %v (want target 1)", jlt)
	}
	if oldToNew[1] != 3 {
		t.Errorf("oldToNew[1] = %d, want 3", oldToNew[1])
	}
	if out.Instrs[1].Op != isa.OpPrefetch || out.Instrs[2].Op != isa.OpYield {
		t.Error("inserted group misplaced")
	}
	// Symbols remap to the group start.
	if out.Symbols["loop"] != 1 {
		t.Errorf("symbol loop = %d, want 1", out.Symbols["loop"])
	}
}

func TestRewriterForwardBranchRelocation(t *testing.T) {
	prog := isa.MustAssemble(`
        cmpi r1, 0      ; 0
        jeq skip        ; 1 -> 3
        movi r2, 1      ; 2
    skip:
        halt            ; 3
    `)
	rw := NewRewriter(prog)
	rw.InsertBefore(3, isa.Instr{Op: isa.OpCYield, Imm: int64(isa.AllRegs)})
	out, oldToNew, err := rw.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if out.Instrs[oldToNew[1]].Target() != 3 {
		t.Errorf("forward branch should target inserted cyield at 3, got %d", out.Instrs[oldToNew[1]].Target())
	}
}

func TestRewriterRejectsInsertedBranches(t *testing.T) {
	prog := isa.MustAssemble("halt")
	rw := NewRewriter(prog)
	rw.InsertBefore(0, isa.Instr{Op: isa.OpJmp, Imm: 0})
	if _, _, err := rw.Apply(); err == nil {
		t.Error("inserted branch should be rejected")
	}
}

func TestRewriterNoInsertsIsIdentity(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 1
        jmp end
        nop
    end:
        halt
    `)
	out, oldToNew, err := NewRewriter(prog).Apply()
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Instrs {
		if oldToNew[i] != i || out.Instrs[i] != prog.Instrs[i] {
			t.Fatalf("identity rewrite changed instruction %d", i)
		}
	}
}

func TestGainModel(t *testing.T) {
	site := Site{
		MissRate:        0.9,
		ExpectedMissLat: 300,
		SwitchCost:      48,
		Absorb:          4,
	}
	if site.Gain() <= 0 {
		t.Errorf("hot miss site should have positive gain, got %f", site.Gain())
	}
	cold := site
	cold.MissRate = 0.01
	if cold.Gain() >= 0 {
		t.Errorf("cold site should have negative gain, got %f", cold.Gain())
	}
	// Gain is monotone in miss rate.
	prev := -1e18
	for r := 0.0; r <= 1.0; r += 0.1 {
		s := site
		s.MissRate = r
		if g := s.Gain(); g < prev {
			t.Fatalf("gain not monotone at rate %f", r)
		} else {
			prev = g
		}
	}
}

func TestPolicies(t *testing.T) {
	hot := Site{PC: 1, MissRate: 0.9, Execs: 100, StallCycles: 10000, ExpectedMissLat: 300, SwitchCost: 48, Absorb: 4}
	cold := Site{PC: 2, MissRate: 0.05, Execs: 100, StallCycles: 10, ExpectedMissLat: 300, SwitchCost: 48, Absorb: 4}

	th := ThresholdPolicy{MinMissRate: 0.5}
	if !th.Decide(hot) || th.Decide(cold) {
		t.Error("threshold policy wrong")
	}
	cb := CostBenefitPolicy{}
	if !cb.Decide(hot) || cb.Decide(cold) {
		t.Error("cost-benefit policy wrong")
	}
	topk := NewTopKPolicy(1, []Site{hot, cold})
	if !topk.Decide(hot) || topk.Decide(cold) {
		t.Error("topk policy wrong")
	}
	if NewTopKPolicy(5, []Site{hot, cold, {PC: 3}}).Decide(Site{PC: 3}) {
		t.Error("topk must skip zero-stall sites")
	}
	if (NeverPolicy{}).Decide(hot) || !(AlwaysPolicy{}).Decide(hot) {
		t.Error("never/always wrong")
	}
	if (AlwaysPolicy{}).Decide(Site{}) {
		t.Error("always policy needs evidence of execution")
	}
	for _, p := range []Policy{th, cb, topk, NeverPolicy{}, AlwaysPolicy{}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

// chaseProfile fabricates a profile marking pc as a hot DRAM-missing load.
func chaseProfile(progLen int, hotPCs ...int) *profile.Profile {
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
        movi r3, 100        ; 0: iterations
    loop:
        load r1, [r1]       ; 1: hot pointer chase
        addi r3, r3, -1     ; 2
        cmpi r3, 0          ; 3
        jgt loop            ; 4
        halt                ; 5
`

func TestPrimaryInstrumentsHotLoad(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	prof := chaseProfile(len(prog.Instrs), 1)
	opts := DefaultOptions()
	out, res, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 1 || res.Prefetches != 1 {
		t.Fatalf("yields=%d prefetches=%d, want 1/1", res.Yields, res.Prefetches)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites: %+v", res.Sites)
	}
	s := res.Sites[0]
	if s.OldPC != 1 {
		t.Errorf("instrumented pc %d, want 1", s.OldPC)
	}
	// Layout: prefetch, yield, load.
	if out.Instrs[s.YieldPC].Op != isa.OpYield {
		t.Errorf("instr at YieldPC is %v", out.Instrs[s.YieldPC])
	}
	if out.Instrs[s.YieldPC-1].Op != isa.OpPrefetch {
		t.Errorf("prefetch missing before yield")
	}
	if out.Instrs[s.NewPC].Op != isa.OpLoad {
		t.Errorf("instr at NewPC is %v", out.Instrs[s.NewPC])
	}
	// Prefetch must use the load's address operands.
	pf := out.Instrs[s.YieldPC-1]
	if pf.Rs1 != 1 || pf.Imm != 0 {
		t.Errorf("prefetch operands wrong: %v", pf)
	}
	// Live mask: r1 (address/value chain), r3 (counter), SP. r2 dead.
	mask := out.Instrs[s.YieldPC].LiveMask()
	if !mask.Has(1) || !mask.Has(3) || !mask.Has(isa.SP) {
		t.Errorf("mask %v missing live registers", mask)
	}
	if mask.Has(2) || mask.Has(7) {
		t.Errorf("mask %v includes dead registers", mask)
	}
	// The loop branch must re-enter at the prefetch.
	var jgt isa.Instr
	for _, in := range out.Instrs {
		if in.Op == isa.OpJgt {
			jgt = in
		}
	}
	if jgt.Target() != s.YieldPC-1 {
		t.Errorf("loop branch targets %d, want %d", jgt.Target(), s.YieldPC-1)
	}
}

func TestPrimaryNeverPolicyLeavesProgramAlone(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	prof := chaseProfile(len(prog.Instrs), 1)
	opts := DefaultOptions()
	opts.Policy = NeverPolicy{}
	out, res, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 0 || len(out.Instrs) != len(prog.Instrs) {
		t.Error("never policy must not change the program")
	}
}

func TestPrimaryUnprofiledLoadIgnored(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	prof := profile.Build(len(prog.Instrs), nil, nil) // empty profile
	out, res, err := Primary(prog, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 0 || len(out.Instrs) != len(prog.Instrs) {
		t.Error("unprofiled loads must not be instrumented")
	}
}

const coalesceSrc = `
        movi r2, 4096       ; 0
        movi r7, 50         ; 1
    loop:
        load r3, [r2]       ; 2: independent
        load r4, [r2+64]    ; 3: independent
        load r5, [r2+128]   ; 4: independent
        add r1, r3, r4      ; 5
        add r1, r1, r5      ; 6
        addi r2, r2, 192    ; 7
        addi r7, r7, -1     ; 8
        cmpi r7, 0          ; 9
        jgt loop            ; 10
        halt                ; 11
`

func TestCoalescing(t *testing.T) {
	prog := isa.MustAssemble(coalesceSrc)
	prof := chaseProfile(len(prog.Instrs), 2, 3, 4)
	opts := DefaultOptions()
	opts.Coalesce = true
	out, res, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 1 {
		t.Fatalf("coalesced yields = %d, want 1", res.Yields)
	}
	if res.Prefetches != 3 {
		t.Fatalf("prefetches = %d, want 3", res.Prefetches)
	}
	// Group layout: pf, pf, pf, yield, load, load, load.
	start := res.Sites[0].YieldPC - 3
	for i := 0; i < 3; i++ {
		if out.Instrs[start+i].Op != isa.OpPrefetch {
			t.Errorf("expected prefetch at %d", start+i)
		}
	}
	if out.Instrs[res.Sites[0].YieldPC].Op != isa.OpYield {
		t.Error("yield missing after prefetch group")
	}
	// Without coalescing: three yields.
	opts.Coalesce = false
	_, res2, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Yields != 3 {
		t.Errorf("uncoalesced yields = %d, want 3", res2.Yields)
	}
}

func TestCoalescingRespectsDependence(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        load r3, [r2]       ; 1
        load r4, [r3]       ; 2: depends on 1
        mov r1, r4
        halt
    `)
	prof := chaseProfile(len(prog.Instrs), 1, 2)
	opts := DefaultOptions()
	opts.Coalesce = true
	_, res, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 2 {
		t.Errorf("dependent loads must not coalesce: yields = %d, want 2", res.Yields)
	}
}

func TestFullMaskOptionDisablesLiveness(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	prof := chaseProfile(len(prog.Instrs), 1)
	opts := DefaultOptions()
	opts.LiveMasks = false
	out, res, err := Primary(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Instrs[res.Sites[0].YieldPC].LiveMask() != isa.AllRegs {
		t.Error("full-mask option should save all registers")
	}
}

func TestScavengerLoopGuarantee(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	opts := DefaultScavengerOptions()
	opts.TargetInterval = 10000 // spacing pass never triggers
	out, res, err := Scavenger(prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopYields != 1 {
		t.Fatalf("loop yields = %d, want 1", res.LoopYields)
	}
	if len(res.CondYieldPCs) != 1 {
		t.Fatalf("cond yields: %v", res.CondYieldPCs)
	}
	if out.Instrs[res.CondYieldPCs[0]].Op != isa.OpCYield {
		t.Error("cyield not at reported position")
	}
}

func TestScavengerSkipsLoopsWithYields(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r3, 10
    loop:
        yield
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
    `)
	opts := DefaultScavengerOptions()
	opts.TargetInterval = 10000
	_, res, err := Scavenger(prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopYields != 0 {
		t.Errorf("loop with existing yield got %d insertions", res.LoopYields)
	}
}

func TestScavengerSpacing(t *testing.T) {
	// A long straight-line block of ~60 ALU cycles with a 25-cycle target
	// should get ~1-2 spacing yields.
	src := "    movi r1, 0\n"
	for i := 0; i < 60; i++ {
		src += "    addi r1, r1, 1\n"
	}
	src += "    halt\n"
	prog := isa.MustAssemble(src)
	opts := DefaultScavengerOptions()
	opts.TargetInterval = 25
	out, res, err := Scavenger(prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpacingYields < 1 {
		t.Fatalf("no spacing yields inserted")
	}
	// Verify actual spacing: distance between consecutive yields ≤ target
	// (each non-yield instruction is 1 cycle here).
	last := 0
	for i, in := range out.Instrs {
		if in.Op == isa.OpCYield {
			if i-last > 26 {
				t.Errorf("yield gap %d exceeds target", i-last)
			}
			last = i
		}
	}
}

func TestScavengerUsesLoadLatencyEstimates(t *testing.T) {
	// Two hot loads of ~300 cycles each: with a 100-cycle target, a yield
	// must separate them even though only ~6 instructions exist.
	prog := isa.MustAssemble(`
        movi r2, 4096
        movi r4, 8192
        load r3, [r2]
        add r1, r1, r3
        load r5, [r4]
        add r1, r1, r5
        halt
    `)
	prof := chaseProfile(len(prog.Instrs), 2, 4)
	opts := DefaultScavengerOptions()
	opts.TargetInterval = 100
	_, res, err := Scavenger(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpacingYields == 0 {
		t.Error("expected spacing yield between expensive loads")
	}
}

func TestRemapProfile(t *testing.T) {
	prof := chaseProfile(10, 3)
	prof.Edges = append(prof.Edges, profile.EdgeCount{From: 5, To: 1, Count: 9})
	prof.Blocks = append(prof.Blocks, profile.BlockLatency{StartPC: 1, AvgCycles: 42, Samples: 3})
	oldToNew := []int{0, 1, 2, 6, 7, 8, 9, 10, 11, 12} // inserts before 3
	q := RemapProfile(prof, oldToNew, 13)
	if q.Site(6) == nil || q.Site(3) != nil {
		t.Error("site remap wrong")
	}
	if q.Edges[0].From != 8 || q.Edges[0].To != 1 {
		t.Errorf("edge remap wrong: %+v", q.Edges[0])
	}
	if q.Blocks[0].StartPC != 1 {
		t.Errorf("block remap wrong: %+v", q.Blocks[0])
	}
	if q.ProgramLen != 13 {
		t.Error("program length not updated")
	}
}

func TestPipelineCompose(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	img := isa.Encode(prog)
	prof := chaseProfile(len(prog.Instrs), 1)
	opts := DefaultPipelineOptions()
	opts.Scavenger.TargetInterval = 50
	out, res, err := InstrumentImage(img, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	final := isa.MustDecode(out)
	// The composed mapping must point at the original instructions.
	for old, nw := range res.OldToNew {
		if final.Instrs[nw].Op != prog.Instrs[old].Op {
			t.Errorf("composed map wrong at %d -> %d: %v vs %v", old, nw, final.Instrs[nw], prog.Instrs[old])
		}
	}
	// Primary sites must point at loads and yields in the final binary.
	for _, s := range res.Primary.Sites {
		if final.Instrs[s.NewPC].Op != isa.OpLoad {
			t.Errorf("site NewPC %d is %v", s.NewPC, final.Instrs[s.NewPC])
		}
		if final.Instrs[s.YieldPC].Op != isa.OpYield {
			t.Errorf("site YieldPC %d is %v", s.YieldPC, final.Instrs[s.YieldPC])
		}
	}
	if res.Scavenger == nil {
		t.Fatal("scavenger phase missing")
	}
}

// runSolo executes a program to completion on a fresh machine, ignoring
// yields (no other coroutine to switch to), and returns the result
// register and a memory snapshot.
func runSolo(t *testing.T, prog *isa.Program, seed int64) (uint64, []byte) {
	t.Helper()
	m := mem.NewMemory(1 << 22)
	// Build a deterministic pointer web the programs can chase without
	// faulting: a ring of pointers at 4096..4096+8*1024.
	rng := rand.New(rand.NewSource(seed))
	base := m.Alloc(8*1024+64, 64)
	for i := 0; i < 1024; i++ {
		m.MustWrite64(base+uint64(i)*8, base+uint64(rng.Intn(1024))*8)
	}
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, h)
	ctx := coro.NewContext(0, 0, m.Size()-8)
	ctx.Regs[1] = base
	ctx.Regs[2] = base
	var r cpu.BlockResult
	for used := uint64(0); used < 1_000_000; used += r.Steps {
		if err := core.RunBlock(ctx, false, 1_000_000-used, 0, cpu.Horizon{}, &r); err != nil {
			t.Fatalf("run: %v", err)
		}
		if r.Halted {
			return ctx.Result, memImage(m)
		}
	}
	t.Fatal("program did not halt")
	return 0, nil
}

// TestInstrumentationPreservesSemantics is the load-bearing property test:
// for random profiles and policies, the instrumented binary computes the
// same result and memory state as the original.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	progs := []string{chaseSrc, coalesceSrc, `
        movi r2, 64
        movi r3, 0
        movi r4, 20
    loop:
        store [r2], r4
        load r5, [r2]
        add r3, r3, r5
        addi r2, r2, 8
        addi r4, r4, -1
        cmpi r4, 0
        jgt loop
        mov r1, r3
        halt
    `}
	rng := rand.New(rand.NewSource(99))
	for pi, src := range progs {
		prog := isa.MustAssemble(src)
		wantRes, wantMem := runSolo(t, prog, 7)
		for trial := 0; trial < 10; trial++ {
			// Random profile: each load flagged hot with random rates.
			var samples []pebs.Sample
			for i, in := range prog.Instrs {
				if in.Op != isa.OpLoad || rng.Intn(2) == 0 {
					continue
				}
				execs := uint64(100 + rng.Intn(1000))
				misses := uint64(rng.Intn(int(execs)))
				samples = append(samples,
					pebs.Sample{Event: pebs.EvLoadRetired, PC: i, Weight: execs},
					pebs.Sample{Event: pebs.EvLoadL2Miss, PC: i, Weight: misses},
					pebs.Sample{Event: pebs.EvStallCycle, PC: i, Weight: misses * 250},
				)
			}
			prof := profile.Build(len(prog.Instrs), samples, nil)
			opts := DefaultPipelineOptions()
			opts.Primary.Coalesce = rng.Intn(2) == 0
			opts.Primary.LiveMasks = rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				opts.Primary.Policy = ThresholdPolicy{MinMissRate: rng.Float64()}
			case 1:
				opts.Primary.Policy = AlwaysPolicy{}
			default:
				opts.Primary.Policy = CostBenefitPolicy{}
			}
			so := DefaultScavengerOptions()
			so.TargetInterval = uint64(20 + rng.Intn(500))
			so.LiveMasks = opts.Primary.LiveMasks
			opts.Scavenger = &so
			img, _, err := InstrumentImage(isa.Encode(prog), prof, opts)
			if err != nil {
				t.Fatalf("prog %d trial %d: %v", pi, trial, err)
			}
			got, gotMem := runSolo(t, isa.MustDecode(img), 7)
			if got != wantRes {
				t.Fatalf("prog %d trial %d: result %d != %d", pi, trial, got, wantRes)
			}
			if !bytes.Equal(gotMem, wantMem) {
				t.Fatalf("prog %d trial %d: memory state diverged", pi, trial)
			}
		}
	}
}

func TestScavengerRejectsZeroInterval(t *testing.T) {
	prog := isa.MustAssemble("halt")
	if _, _, err := Scavenger(prog, nil, ScavengerOptions{}); err == nil {
		t.Error("zero interval should be rejected")
	}
}

func TestPrimaryRejectsNilPolicy(t *testing.T) {
	prog := isa.MustAssemble("halt")
	if _, _, err := Primary(prog, profile.Build(1, nil, nil), Options{}); err == nil {
		t.Error("nil policy should be rejected")
	}
}

func TestStoreInstrumentation(t *testing.T) {
	// A store-heavy kernel: the store at pc=2 should get an RFO prefetch
	// plus yield when the profile marks it hot.
	prog := isa.MustAssemble(`
        movi r3, 100
    loop:
        muli r2, r2, 13
        store [r2], r3       ; 2: hot scattered store
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
    `)
	var samples []pebs.Sample
	samples = append(samples,
		pebs.Sample{Event: pebs.EvStoreRetired, PC: 2, Weight: 1000},
		pebs.Sample{Event: pebs.EvStoreL2Miss, PC: 2, Weight: 900},
		pebs.Sample{Event: pebs.EvStoreL3Miss, PC: 2, Weight: 900},
		pebs.Sample{Event: pebs.EvStallCycle, PC: 2, Weight: 250000},
	)
	prof := profile.Build(len(prog.Instrs), samples, nil)
	out, res, err := Primary(prog, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Yields != 1 || res.Prefetches != 1 {
		t.Fatalf("yields=%d prefetches=%d, want 1/1", res.Yields, res.Prefetches)
	}
	st := res.Sites[0]
	if out.Instrs[st.NewPC].Op != isa.OpStore {
		t.Errorf("site NewPC is %v, want the store", out.Instrs[st.NewPC])
	}
	pf := out.Instrs[st.YieldPC-1]
	if pf.Op != isa.OpPrefetch || pf.Rs1 != 2 {
		t.Errorf("RFO prefetch wrong: %v", pf)
	}
}

func TestScavengerSpacingGuarantee(t *testing.T) {
	// A long straight-line body plus a yield-free loop: after the
	// scavenger phase, the static audit must find no yield-free loops and
	// no gap beyond target + one instruction.
	src := "    movi r1, 0\n"
	for i := 0; i < 120; i++ {
		src += "    addi r1, r1, 1\n"
	}
	src += `
    movi r2, 50
    sp:
    addi r1, r1, 2
    addi r2, r2, -1
    cmpi r2, 0
    jgt sp
    halt
`
	prog := isa.MustAssemble(src)
	opts := DefaultScavengerOptions()
	opts.TargetInterval = 30
	out, _, err := Scavenger(prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckScavengerSpacing(out, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoopsWithoutYield != 0 {
		t.Errorf("loops without yields: %d", rep.LoopsWithoutYield)
	}
	if rep.MaxGap > float64(opts.TargetInterval)+rep.MaxStep {
		t.Errorf("max gap %.0f exceeds target %d + max step %.0f",
			rep.MaxGap, opts.TargetInterval, rep.MaxStep)
	}

	// The audit must flag the uninstrumented program.
	repBad, err := CheckScavengerSpacing(prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if repBad.LoopsWithoutYield == 0 {
		t.Error("audit missed the yield-free loop")
	}
	if repBad.MaxGap <= float64(opts.TargetInterval) {
		t.Error("audit missed the oversized gap")
	}
}

func TestInstrumentationDeterminism(t *testing.T) {
	// Reproducible builds: identical inputs must yield bit-identical
	// images (maps anywhere in the pipeline would break this).
	prog := isa.MustAssemble(coalesceSrc)
	prof := chaseProfile(len(prog.Instrs), 2, 3, 4)
	opts := DefaultPipelineOptions()
	opts.Scavenger.TargetInterval = 60
	imgA, _, err := InstrumentImage(isa.Encode(prog), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	imgB, _, err := InstrumentImage(isa.Encode(prog), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgA.Words) != len(imgB.Words) {
		t.Fatal("nondeterministic image length")
	}
	for i := range imgA.Words {
		if imgA.Words[i] != imgB.Words[i] {
			t.Fatalf("nondeterministic instrumentation at word %d", i)
		}
	}
}

func TestPipelineIdentityWhenDisabled(t *testing.T) {
	prog := isa.MustAssemble(chaseSrc)
	prof := chaseProfile(len(prog.Instrs), 1)
	opts := PipelineOptions{Primary: DefaultOptions()}
	opts.Primary.Policy = NeverPolicy{}
	opts.Scavenger = nil
	img, res, err := InstrumentImage(isa.Encode(prog), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != len(prog.Instrs) {
		t.Error("disabled pipeline changed the binary")
	}
	for i, nw := range res.OldToNew {
		if nw != i {
			t.Fatal("identity mapping expected")
		}
	}
}

// memImage returns the bytes [0, m.Brk()) of m as loads see them, the
// first 8 (never loadable) zero.
func memImage(m *mem.Memory) []byte {
	out := make([]byte, (m.Brk()+7)&^7)
	for a := uint64(8); a < m.Brk(); a += 8 {
		binary.LittleEndian.PutUint64(out[a:], m.MustRead64(a))
	}
	return out[:m.Brk()]
}
