package bincfg

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// An instrumented scavenger loop — a conditional yield in the body —
// must derive as one loop trace straight through the CYIELD, or the
// retire tier that keeps dormant yields in-trace never gets the loop. A
// primary-phase YIELD still ends the trace it sits in.
func TestSuperblockSpecsChainConditionalYields(t *testing.T) {
	scav := isa.MustAssemble(`
    scav:
        addi r5, r5, 1
        cyield 0x8030
        addi r4, r4, -1
        cmpi r4, 0
        jgt scav
        mov r1, r5
        halt
    `)
	want := []cpu.SuperblockSpec{{PCs: []int{0, 1, 2, 3, 4}, Loop: true}}
	if got := SuperblockSpecs(scav, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("scavenger loop derived %+v, want %+v", got, want)
	}

	chase := isa.MustAssemble(`
    chase:
        prefetch [r1]
        yield 0x800a
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt chase
        halt
    `)
	for _, spec := range SuperblockSpecs(chase, nil) {
		for _, pc := range spec.PCs {
			if op := chase.Instrs[pc].Op; op == isa.OpYield || op == isa.OpPrefetch {
				t.Errorf("trace %+v runs through the %v at pc %d", spec, op, pc)
			}
		}
	}
}

// Whatever SuperblockSpecs derives, the tier must accept: both sides use
// cpu.SuperblockTraceable, and this holds them to it over random
// programs full of yields of both kinds.
func TestSuperblockSpecsInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		prog := randPlanProgram(rng, 5+rng.Intn(60))
		// Close the program into a loop so heads beyond pc 0 exist.
		prog.Instrs[len(prog.Instrs)-1] = isa.Instr{Op: isa.OpJlt, Imm: int64(rng.Intn(len(prog.Instrs)))}
		prog.Instrs = append(prog.Instrs, isa.Instr{Op: isa.OpHalt})
		m := mem.NewMemory(1 << 12)
		core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
		if err := InstallSuperblocks(core, nil); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, isa.Disassemble(prog))
		}
	}
}
