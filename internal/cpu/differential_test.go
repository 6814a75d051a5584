package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// randRunnableProgram generates a random but guaranteed-terminating
// program: straight-line ALU/memory/compare instructions with only
// forward branches, all memory accesses confined to a valid arena
// addressed through pinned register r13, ending in HALT. ALU and compare
// immediates include the values decoding must get right: negative ones,
// shift counts of 64 and more, and the edges of the 32-bit immediate.
func randRunnableProgram(rng *rand.Rand, n int, arenaSize int64) *isa.Program {
	p := &isa.Program{}
	reg := func() isa.Reg { return isa.Reg(rng.Intn(12)) } // r0..r11
	off := func() int64 { return int64(rng.Intn(int(arenaSize/8)-1)) * 8 }
	imm := func(small int) int64 {
		switch rng.Intn(4) {
		case 0:
			return -int64(1 + rng.Intn(1<<16))
		case 1:
			return int64(64 + rng.Intn(1<<10))
		case 2:
			return [...]int64{math.MinInt32, math.MinInt32 + 1, -1, 63, 64, math.MaxInt32}[rng.Intn(6)]
		}
		return int64(rng.Intn(small))
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(13) {
		case 0:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpMovI, Rd: reg(), Imm: int64(rng.Intn(1<<16) - 1<<15)})
		case 1:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpAdd, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 2:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpSub, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 3:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpMul, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpDiv, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 5:
			ops := []isa.Op{isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr}
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 6:
			ops := []isa.Op{isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpShlI, isa.OpShrI}
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Imm: imm(64)})
		case 7:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpLoad, Rd: reg(), Rs1: 13, Imm: off()})
		case 8:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpStore, Rs1: 13, Rs2: reg(), Imm: off()})
		case 9:
			if rng.Intn(2) == 0 {
				p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCmp, Rs1: reg(), Rs2: reg()})
			} else {
				p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCmpI, Rs1: reg(), Imm: imm(100)})
			}
		case 10:
			// Forward conditional branch (guarantees termination).
			ops := []isa.Op{isa.OpJeq, isa.OpJne, isa.OpJlt, isa.OpJle, isa.OpJgt, isa.OpJge, isa.OpJmp}
			target := i + 1 + rng.Intn(n-i) // in (i, n]
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Imm: int64(target)})
		case 12:
			// Adjacent submit/collect accelerator pair (the reference and
			// the core must agree on the checksum semantics).
			p.Instrs = append(p.Instrs,
				isa.Instr{Op: isa.OpAccel, Rs1: 13, Imm: off()},
				isa.Instr{Op: isa.OpAccWait, Rd: reg()},
			)
			i++ // emitted two instructions
		case 11:
			ops := []isa.Op{isa.OpNop, isa.OpPrefetch, isa.OpYield, isa.OpCYield, isa.OpCheck}
			in := isa.Instr{Op: ops[rng.Intn(len(ops))]}
			if in.Op == isa.OpPrefetch || in.Op == isa.OpCheck {
				in.Rs1, in.Imm = 13, off()
			}
			if in.Op.IsYield() {
				in.Imm = int64(isa.AllRegs)
			}
			p.Instrs = append(p.Instrs, in)
		}
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpHalt})
	return p
}

// diffAgainstReference runs prog from one initial state through the
// timing-free reference interpreter and, on rigs of their own, through
// every retire tier — the scalar dispatch alone, the block engine with
// the traces cleared, traces derived at testMinLen, and those traces
// under an observer — with fuel cut at random. Each tier must halt with
// the reference's result, registers, flags and memory, and every tier
// above the scalar dispatch must end in the scalar run's exact state:
// clock, counters, hierarchy and all. It returns the tiers' rigs.
func diffAgainstReference(t *testing.T, label string, prog *isa.Program, initRegs [isa.NumRegs]uint64, arena []uint64, rng *rand.Rand) []*engineRig {
	t.Helper()
	ref := newEngineRig(prog, initRegs, arena)
	want := &isa.RefState{Regs: ref.ctx.Regs}
	if err := isa.RefRun(prog, want, ref.m, 1<<20); err != nil {
		t.Fatalf("%s: reference: %v\n%s", label, err, isa.Disassemble(prog))
	}
	wantMem := memImage(ref.m)
	var rigs []*engineRig
	for _, tier := range allTiers {
		r := newEngineRig(prog, initRegs, arena)
		r.driveTier(tier, false, 0, Horizon{}, 1<<20, rng)
		switch {
		case r.err != nil:
			t.Fatalf("%s on the %v tier: %v\n%s", label, tier, r.err, isa.Disassemble(prog))
		case !r.ctx.Halted:
			t.Fatalf("%s on the %v tier: no halt\n%s", label, tier, isa.Disassemble(prog))
		case r.ctx.Result != want.Result:
			t.Fatalf("%s on the %v tier: result %d != reference %d\n%s", label, tier, r.ctx.Result, want.Result, isa.Disassemble(prog))
		case r.ctx.Regs != want.Regs:
			t.Fatalf("%s on the %v tier: registers %#x != reference %#x\n%s", label, tier, r.ctx.Regs, want.Regs, isa.Disassemble(prog))
		case r.ctx.Flags != want.Flags:
			t.Fatalf("%s on the %v tier: flags %d != reference %d", label, tier, r.ctx.Flags, want.Flags)
		}
		for i, b := range memImage(r.m) {
			if b != wantMem[i] {
				t.Fatalf("%s on the %v tier: memory diverges at %#x", label, tier, i)
			}
		}
		if tier != tierScalar {
			assertRigsEqual(t, fmt.Sprintf("%s on the %v tier", label, tier), rigs[0], r)
		}
		rigs = append(rigs, r)
	}
	return rigs
}

// TestDifferentialAgainstReference cross-checks the cycle-level core's
// architectural semantics against the timing-free reference interpreter
// on random programs, on every retire tier, and holds the event stream
// each tier hands an observer to the scalar dispatch's (diffEvents) in
// both modes under random budgets and horizons — over straight-line
// programs, loops and counting loops, whose laps the observed trace tier
// must walk.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		initRegs, arena := randInitState(rng)
		label := fmt.Sprintf("trial %d", trial)
		diffAgainstReference(t, label, prog, initRegs, arena, rng)
		block := rng.Intn(2) == 0
		var budget uint64
		if block || rng.Intn(2) == 0 {
			budget = uint64(1 + rng.Intn(16))
		}
		diffEvents(t, label, prog, rng, block, budget, horizonFromByte(uint8(rng.Intn(256))))
	}
	for trial := 0; trial < 100; trial++ {
		prog := randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096, trial%2 == 0)
		if trial%4 == 3 {
			prog = randCountingLoop(rng, 5+rng.Intn(20), int64(2+rng.Intn(200)), rng.Intn(2) == 0, trial%8 == 7)
		}
		diffEvents(t, fmt.Sprintf("loop trial %d", trial), prog, rng, rng.Intn(2) == 0, uint64(rng.Intn(16)), horizonFromByte(uint8(rng.Intn(256))))
	}
}

// TestDifferentialWithCalls cross-checks CALL/RET handling specifically
// (the random generator above omits them to guarantee termination).
func TestDifferentialWithCalls(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 3
        call f
        call g
        halt
    f:
        addi r1, r1, 10
        ret
    g:
        call f
        addi r1, r1, 100
        ret
    `)
	rng := rand.New(rand.NewSource(1))
	for _, r := range diffAgainstReference(t, "calls", prog, [isa.NumRegs]uint64{}, make([]uint64, 8), rng) {
		if r.ctx.Result != 123 {
			t.Fatalf("result %d, want 123", r.ctx.Result)
		}
	}
}

// TestDifferentialAccelerator cross-checks the accelerator's functional
// semantics (timing aside) between the core and the reference.
func TestDifferentialAccelerator(t *testing.T) {
	prog := isa.MustAssemble(`
        mov  r2, r13
        movi r3, 4
    loop:
        accel [r2]
        addi r0, r0, 1
        accwait r4
        add r1, r1, r4
        addi r2, r2, 64
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
    `)
	const accwaitPC = 4
	arena := make([]uint64, 32)
	for i := range arena {
		arena[i] = uint64(i)*24 + 7
	}
	rng := rand.New(rand.NewSource(1))
	for _, r := range diffAgainstReference(t, "accel", prog, [isa.NumRegs]uint64{}, arena, rng) {
		if r.ctx.Result == 0 {
			t.Fatal("accelerator checksums summed to zero")
		}
		if r.core.Counters.StallCycles[accwaitPC] == 0 {
			t.Error("accwait never stalled despite minimal intervening work")
		}
	}
}

// TestAccWaitWithoutSubmit covers the sticky-completion-record semantics:
// waiting with nothing outstanding reads the last (zero) record and does
// not stall or fault.
func TestAccWaitWithoutSubmit(t *testing.T) {
	prog := isa.MustAssemble("accwait r1\nhalt")
	m := mem.NewMemory(1 << 12)
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	if _, err := step(core, ctx, false); err != nil {
		t.Fatalf("bare ACCWAIT should read the sticky record: %v", err)
	}
	if ctx.StallCycles != 0 || ctx.Regs[1] != 0 {
		t.Errorf("bare ACCWAIT: stall=%d r1=%d, want zero record", ctx.StallCycles, ctx.Regs[1])
	}
}
