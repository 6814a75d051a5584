package sfi

import (
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func TestHardenInsertsGuards(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        load r1, [r2]
        store [r2+8], r1
        halt
    `)
	out, res, err := Harden(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks != 2 || res.Folded != 0 {
		t.Fatalf("checks=%d folded=%d", res.Checks, res.Folded)
	}
	ld := res.OldToNew[1]
	if out.Instrs[ld-1].Op != isa.OpCheck {
		t.Error("guard missing before load")
	}
	chk := out.Instrs[ld-1]
	if chk.Rs1 != 2 || chk.Imm != 0 {
		t.Errorf("guard operands wrong: %v", chk)
	}
}

func TestHardenSkipsStoresWhenConfigured(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        store [r2], r2
        halt
    `)
	_, res, err := Harden(prog, Options{GuardStores: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks != 0 {
		t.Error("stores should be unguarded")
	}
}

func TestCoDesignFoldsGuardedYieldLoads(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        prefetch [r2]
        yield
        load r1, [r2]       ; follows a yield: guard folds
        load r3, [r2+8]     ; bare: guard stays
        halt
    `)
	_, res, err := Harden(prog, Options{CoDesign: true, GuardStores: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 1 || res.Checks != 1 {
		t.Errorf("folded=%d checks=%d, want 1/1", res.Folded, res.Checks)
	}
	_, res2, err := Harden(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Checks != 2 {
		t.Errorf("without co-design: checks=%d, want 2", res2.Checks)
	}
}

func TestGuardsTrapOutsideSandbox(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        load r1, [r2]
        movi r2, 65536
        load r1, [r2]
        halt
    `)
	hardened, _, err := Harden(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory(1 << 20)
	cfg := cpu.DefaultConfig()
	cfg.SandboxLo = 4096
	cfg.SandboxHi = 8192
	core := cpu.MustNewCore(cfg, hardened, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	var fault error
	var r cpu.BlockResult
	for used := uint64(0); used < 100 && !ctx.Halted; used += r.Steps {
		if err := core.RunBlock(ctx, false, 100-used, 0, cpu.Horizon{}, &r); err != nil {
			fault = err
			break
		}
	}
	if fault == nil {
		t.Fatal("out-of-sandbox access did not trap")
	}
	if ctx.Halted {
		t.Fatal("program should have been stopped by the trap")
	}
}

func TestHardenedProgramStillComputes(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        movi r3, 77
        store [r2], r3
        load r1, [r2]
        halt
    `)
	hardened, _, err := Harden(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory(1 << 20)
	core := cpu.MustNewCore(cpu.DefaultConfig(), hardened, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	var r cpu.BlockResult
	for used := uint64(0); used < 100 && !ctx.Halted; used += r.Steps {
		if err := core.RunBlock(ctx, false, 100-used, 0, cpu.Horizon{}, &r); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Result != 77 {
		t.Errorf("result = %d, want 77", ctx.Result)
	}
}
