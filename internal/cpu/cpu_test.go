package cpu

import (
	"errors"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// step retires one instruction through RunBlock, the value-returning
// shape the tests prefer.
func step(c *Core, ctx *coro.Context, block bool) (BlockResult, error) {
	var r BlockResult
	err := c.RunBlock(ctx, block, 1, 0, Horizon{}, &r)
	return r, err
}

// testRig builds a core over the given assembly with a 1 MiB memory and a
// context whose stack sits at the top of memory.
func testRig(t *testing.T, src string) (*Core, *coro.Context, *mem.Memory) {
	t.Helper()
	prog := isa.MustAssemble(src)
	m := mem.NewMemory(1 << 20)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := MustNewCore(DefaultConfig(), prog, m, h)
	ctx := coro.NewContext(0, 0, m.Size()-8)
	return core, ctx, m
}

// runToHalt retires until halt or fuel exhaustion.
func runToHalt(t *testing.T, core *Core, ctx *coro.Context, fuel int) {
	t.Helper()
	var r BlockResult
	for used := 0; used < fuel; used += int(r.Steps) {
		if err := core.RunBlock(ctx, false, uint64(fuel-used), 0, Horizon{}, &r); err != nil {
			t.Fatalf("after %d steps: %v", used, err)
		}
		if r.Halted {
			return
		}
	}
	t.Fatalf("program did not halt within %d steps", fuel)
}

func TestArithmetic(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r1, 6
        movi r2, 7
        mul  r3, r1, r2
        add  r3, r3, r1     ; 48
        sub  r3, r3, r2     ; 41
        movi r4, 2
        div  r5, r3, r4     ; 20
        shli r5, r5, 2      ; 80
        shri r5, r5, 1      ; 40
        movi r6, 0xF0
        andi r6, r6, 0x3C   ; 0x30
        xor  r6, r6, r5     ; 0x30 ^ 40 = 0x18^... computed below
        or   r6, r6, r4
        mov  r1, r3
        halt
    `)
	runToHalt(t, core, ctx, 100)
	if ctx.Result != 41 {
		t.Errorf("result = %d, want 41", ctx.Result)
	}
	if ctx.Regs[5] != 40 {
		t.Errorf("r5 = %d, want 40", ctx.Regs[5])
	}
	want := (uint64(0x30) ^ 40) | 2
	if ctx.Regs[6] != want {
		t.Errorf("r6 = %#x, want %#x", ctx.Regs[6], want)
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r1, 5
        movi r2, 0
        div  r1, r1, r2
        halt
    `)
	runToHalt(t, core, ctx, 10)
	if ctx.Result != 0 {
		t.Errorf("div by zero = %d, want 0", ctx.Result)
	}
}

func TestLoopAndFlags(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r1, 0
        movi r2, 10
    loop:
        addi r1, r1, 3
        addi r2, r2, -1
        cmpi r2, 0
        jgt loop
        halt
    `)
	runToHalt(t, core, ctx, 200)
	if ctx.Result != 30 {
		t.Errorf("result = %d, want 30", ctx.Result)
	}
}

func TestAllConditionals(t *testing.T) {
	// For (a,b) pairs exercise each condition.
	core, ctx, _ := testRig(t, `
        movi r1, 0
        movi r2, 5
        movi r3, 5
        cmp r2, r3
        jeq eq_ok
        halt
    eq_ok:
        addi r1, r1, 1
        cmpi r2, 4
        jne ne_ok
        halt
    ne_ok:
        addi r1, r1, 1
        cmpi r2, 6
        jlt lt_ok
        halt
    lt_ok:
        addi r1, r1, 1
        cmpi r2, 5
        jle le_ok
        halt
    le_ok:
        addi r1, r1, 1
        cmpi r2, 4
        jgt gt_ok
        halt
    gt_ok:
        addi r1, r1, 1
        cmpi r2, 5
        jge ge_ok
        halt
    ge_ok:
        addi r1, r1, 1
        halt
    `)
	runToHalt(t, core, ctx, 100)
	if ctx.Result != 6 {
		t.Errorf("took %d of 6 conditional paths", ctx.Result)
	}
}

func TestSignedComparison(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, -3
        cmpi r2, 1
        jlt ok
        movi r1, 0
        halt
    ok:
        movi r1, 1
        halt
    `)
	runToHalt(t, core, ctx, 10)
	if ctx.Result != 1 {
		t.Error("-3 < 1 should hold under signed comparison")
	}
}

func TestLoadStore(t *testing.T) {
	core, ctx, m := testRig(t, `
        movi r2, 4096
        movi r3, 777
        store [r2+8], r3
        load r1, [r2+8]
        halt
    `)
	runToHalt(t, core, ctx, 10)
	if ctx.Result != 777 {
		t.Errorf("result = %d", ctx.Result)
	}
	if m.MustRead64(4104) != 777 {
		t.Error("store did not reach memory")
	}
}

func TestCallRet(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r1, 5
        call double
        call double
        halt             ; r1 = 20
    double:
        add r1, r1, r1
        ret
    `)
	runToHalt(t, core, ctx, 50)
	if ctx.Result != 20 {
		t.Errorf("result = %d, want 20", ctx.Result)
	}
}

func TestNestedCalls(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r1, 1
        call a
        halt
    a:
        addi r1, r1, 10
        call b
        addi r1, r1, 100
        ret
    b:
        addi r1, r1, 1000
        ret
    `)
	runToHalt(t, core, ctx, 50)
	if ctx.Result != 1111 {
		t.Errorf("result = %d, want 1111", ctx.Result)
	}
}

func TestMemoryFaultSurfaces(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 0
        load r1, [r2]
        halt
    `)
	if _, err := step(core, ctx, false); err != nil {
		t.Fatalf("movi should not fault: %v", err)
	}
	_, err := step(core, ctx, false)
	if err == nil {
		t.Fatal("null load should fault")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %T is not a Fault", err)
	}
	if f.PC != 1 {
		t.Errorf("fault PC = %d, want 1", f.PC)
	}
}

func TestStallAccounting(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 4096
        load r1, [r2]      ; cold: DRAM
        load r3, [r2]      ; hot: L1
        halt
    `)
	cfg := core.Hier.Config()
	obs := &recordingObserver{}
	core.Observe(obs)
	runToHalt(t, core, ctx, 10)
	cold, hot := obs.retires[1], obs.retires[2]
	if cold.Level != mem.LevelDRAM || cold.MemLat != cfg.LatDRAM {
		t.Fatalf("cold load level = %v, latency %d", cold.Level, cold.MemLat)
	}
	wantStall := cfg.LatDRAM - core.Cfg.PipelineAbsorb
	if cold.Stall != wantStall {
		t.Errorf("cold load stall = %d, want %d", cold.Stall, wantStall)
	}
	if hot.Stall != 0 {
		t.Errorf("hot load stall = %d, want 0", hot.Stall)
	}
	if core.Counters.StallCycles[1] != wantStall {
		t.Errorf("per-PC stall = %d", core.Counters.StallCycles[1])
	}
	if core.Counters.MissL2[1] != 1 || core.Counters.MissL3[1] != 1 {
		t.Error("miss counters wrong")
	}
	if core.Counters.MissRateL2(1) != 1.0 {
		t.Errorf("MissRateL2 = %f", core.Counters.MissRateL2(1))
	}
	if core.Counters.MissRateL2(0) != 0 {
		t.Error("non-load PC should have zero miss rate")
	}
}

func TestBlockModeDoesNotAdvanceClockByStall(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 4096
        load r1, [r2]
        halt
    `)
	step(core, ctx, true)
	before := core.Now
	r, _ := step(core, ctx, true)
	if r.Stall == 0 {
		t.Fatal("cold load should stall")
	}
	if core.Now != before+r.Busy {
		t.Errorf("clock advanced by %d, want busy %d only", core.Now-before, r.Busy)
	}
	if ctx.StallCycles != 0 {
		t.Error("block mode must not attribute stall to the context")
	}
}

func TestPrefetchThenLoadHidesStall(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 4096
        prefetch [r2]
        movi r3, 0
        movi r4, 200
    spin:
        addi r3, r3, 1
        addi r4, r4, -1
        cmpi r4, 0
        jgt spin
        load r1, [r2]
        halt
    `)
	runToHalt(t, core, ctx, 5000)
	// The spin loop runs ~200*4 cycles > DRAM latency, so the prefetch
	// completes and the load must not stall at all.
	if loadStall := core.Counters.StallCycles[8]; loadStall != 0 {
		t.Errorf("load after long prefetch window stalled %d cycles", loadStall)
	}
	if !ctx.LastPrefetchValid || ctx.LastPrefetchAddr != 4096 {
		t.Error("prefetch bookkeeping missing")
	}
}

func TestYieldResults(t *testing.T) {
	core, ctx, _ := testRig(t, `
        yield 0x0006
        cyield 0x0002
        halt
    `)
	r, _ := step(core, ctx, false)
	if !r.Yield || r.LiveMask != 0x0006 {
		t.Errorf("yield result wrong: %+v", r)
	}
	r, _ = step(core, ctx, false)
	if !r.CondYield || r.LiveMask != 0x0002 {
		t.Errorf("cyield result wrong: %+v", r)
	}
}

func TestSFICheck(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        check [r2]
        movi r2, 100000
        check [r2]
        halt
    `)
	m := mem.NewMemory(1 << 20)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	cfg := DefaultConfig()
	cfg.SandboxLo = 4096
	cfg.SandboxHi = 8192
	core := MustNewCore(cfg, prog, m, h)
	ctx := coro.NewContext(0, 0, m.Size()-8)
	step(core, ctx, false)
	if _, err := step(core, ctx, false); err != nil {
		t.Fatalf("in-bounds check trapped: %v", err)
	}
	step(core, ctx, false)
	if _, err := step(core, ctx, false); err == nil {
		t.Fatal("out-of-bounds check did not trap")
	}
}

func TestSFIDisabledNeverTraps(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 999999999
        check [r2]
        movi r1, 1
        halt
    `)
	runToHalt(t, core, ctx, 10)
	if ctx.Result != 1 {
		t.Error("check with disabled sandbox should be a no-op")
	}
}

// recordingObserver keeps every event it sees.
type recordingObserver struct {
	retires  []RetireEvent
	branches []BranchEvent
}

func (r *recordingObserver) OnRetire(e RetireEvent) { r.retires = append(r.retires, e) }
func (r *recordingObserver) OnBranch(e BranchEvent) { r.branches = append(r.branches, e) }

// nopObserver ignores every event. Attaching it keeps RunBlock on its
// scalar dispatch at no other cost.
type nopObserver struct{}

func (nopObserver) OnRetire(RetireEvent) {}
func (nopObserver) OnBranch(BranchEvent) {}

func TestObserverEvents(t *testing.T) {
	core, ctx, _ := testRig(t, `
        movi r2, 4096
        movi r3, 2
    loop:
        load r1, [r2]
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
    `)
	obs := &recordingObserver{}
	core.Observe(obs)
	runToHalt(t, core, ctx, 100)
	var loads, misses int
	for _, e := range obs.retires {
		if e.IsLoad {
			loads++
			if e.MissedL2 {
				misses++
			}
		}
	}
	if loads != 2 || misses != 1 {
		t.Errorf("loads=%d misses=%d, want 2 and 1", loads, misses)
	}
	if len(obs.branches) != 1 {
		t.Fatalf("branches = %d, want 1 (one taken jgt)", len(obs.branches))
	}
	b := obs.branches[0]
	if b.From != 5 || b.To != 2 {
		t.Errorf("branch edge %d->%d, want 5->2", b.From, b.To)
	}
	if b.Cycles == 0 {
		t.Error("branch delta should be nonzero")
	}
	core.ClearObservers()
	step(core, ctx, false) // would panic-ish if observers fired on halted ctx; just ensure no append
	if len(obs.retires) != 11 {
		t.Errorf("retires = %d, want 11", len(obs.retires))
	}
}

func TestChargeSwitchAndIdle(t *testing.T) {
	core, ctx, _ := testRig(t, "halt")
	core.ChargeSwitch(ctx, 24)
	if core.Now != 24 || ctx.SwitchCycles != 24 || ctx.Switches != 1 {
		t.Error("ChargeSwitch accounting wrong")
	}
	core.AdvanceIdle(10)
	if core.Now != 34 {
		t.Error("AdvanceIdle wrong")
	}
}

func TestSteppingHaltedContextFails(t *testing.T) {
	core, ctx, _ := testRig(t, "halt")
	runToHalt(t, core, ctx, 2)
	if _, err := step(core, ctx, false); err == nil {
		t.Error("stepping halted context should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CostALU = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero ALU cost accepted")
	}
	cfg = DefaultConfig()
	cfg.SandboxLo = 10
	cfg.SandboxHi = 5
	if err := cfg.Validate(); err == nil {
		t.Error("inverted sandbox accepted")
	}
}

func TestBusyCostsDistinguishOps(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.busyCost(isa.OpMul) <= cfg.busyCost(isa.OpAdd) {
		t.Error("mul should cost more than add")
	}
	if cfg.busyCost(isa.OpDiv) <= cfg.busyCost(isa.OpMul) {
		t.Error("div should cost more than mul")
	}
	if cfg.busyCost(isa.OpNop) == 0 || cfg.busyCost(isa.OpHalt) == 0 {
		t.Error("all ops must have nonzero cost")
	}
}

func TestFaultErrorAndCounterAccessors(t *testing.T) {
	f := &Fault{Ctx: 1, PC: 2, Err: errors.New("boom")}
	if f.Error() == "" || f.Unwrap() == nil {
		t.Error("Fault accessors broken")
	}
	c := NewCounters(4)
	c.TotalBusy = 60
	c.TotalStall = 40
	if c.StallFraction() != 0.4 {
		t.Errorf("StallFraction = %f", c.StallFraction())
	}
	if (&Counters{}).StallFraction() != 0 {
		t.Error("empty counters should not divide by zero")
	}
	cfg := DefaultConfig()
	if cfg.BusyCost(isa.OpMul) != cfg.busyCost(isa.OpMul) {
		t.Error("BusyCost accessor diverges")
	}
	if _, err := NewCore(Config{}, isa.MustAssemble("halt"), nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
	bad := isa.MustAssemble("halt")
	bad.Instrs[0].Imm = 0
	bad.Instrs = append(bad.Instrs, isa.Instr{Op: isa.Op(240)})
	if _, err := NewCore(DefaultConfig(), bad, nil, nil); err == nil {
		t.Error("invalid program accepted")
	}
}

// TestFaultCounting pins the fault accounting exported through
// FillMetrics: every surfaced *Fault increments Counters.Faults.
func TestFaultCounting(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
        load r2, [r1]   ; null-guard fault
        halt
    `)
	m := mem.NewMemory(1 << 16)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	c := MustNewCore(DefaultConfig(), prog, m, h)
	ctx := coro.NewContext(0, 0, m.Size()-8)

	if c.Counters.Faults != 0 {
		t.Fatalf("fresh core reports %d faults", c.Counters.Faults)
	}
	if _, err := step(c, ctx, false); err != nil { // movi
		t.Fatal(err)
	}
	_, err := step(c, ctx, false) // faulting load
	if err == nil {
		t.Fatal("expected a fault from the null load")
	}
	if c.Counters.Faults != 1 {
		t.Errorf("Faults = %d after one fault, want 1", c.Counters.Faults)
	}

	var mm metrics.CPU
	c.Counters.FillMetrics(&mm)
	if mm.Faults != 1 || mm.Retired != c.Counters.TotalRetired || mm.BusyCycles != c.Counters.TotalBusy {
		t.Errorf("FillMetrics mismatch: %+v vs %+v", mm, *c.Counters)
	}
}
