package cpu

import (
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestStepSteadyStateAllocFree guards the observed paths: once warmed
// up, RunBlock under an observer performs zero heap allocations, both on
// the scalar dispatch alone (every instruction through it, loads, stores
// and taken branches handed to notify) and on the loop trace a core is
// born with (memory steps and the latch notifying from inside runSuper).
// internal/pebs holds the same with the PEBS sampler attached.
func TestStepSteadyStateAllocFree(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
        movi r2, 4096
    loop:
        add   r4, r1, r2    ; address in [4096, 8192): clear of the null guard
        load  r3, [r4]
        store [r4+8], r3
        addi  r1, r1, 64
        andi  r1, r1, 0xFFF
        jmp   loop
    `)
	for _, scalar := range []bool{true, false} {
		m := mem.NewMemory(1 << 20)
		h := mem.MustNewHierarchy(mem.DefaultConfig())
		core := MustNewCore(DefaultConfig(), prog, m, h)
		if scalar {
			scalarOnly(core)
		}
		core.Observe(nopObserver{})
		ctx := coro.NewContext(0, 0, m.Size()-8)

		var res BlockResult
		// Warm-up: past cold caches and any first-use growth.
		for i := 0; i < 50; i++ {
			if err := core.RunBlock(ctx, false, 100, 0, Horizon{}, &res); err != nil {
				t.Fatalf("warm-up block %d: %v", i, err)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := core.RunBlock(ctx, false, 100, 0, Horizon{}, &res); err != nil {
				t.Fatalf("block: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("scalar=%v: steady-state observed RunBlock allocated %.1f times per run, want 0", scalar, allocs)
		}
		if entered := core.SuperblockStats().Activations > 0; entered == scalar {
			t.Errorf("scalar=%v: observed run entered traces: %v", scalar, entered)
		}
	}
}

// aluLoopProgram builds the block engine's best case and the dispatch
// overhead's worst case: a straight-line body of `body` fusable ALU
// instructions closed by a compare and backward branch, matching the
// paper's observation that retired instructions concentrate in
// straight-line stretches between yields. One xor against the counter
// keeps the lap from being an affine step of the registers, so the
// superblock tier has to walk every lap (a pure counting loop it would
// retire in closed form — sbLap — and the tiers' benchmarks would stop
// measuring the same work).
func aluLoopProgram(body int) *isa.Program {
	p := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpMovI, Rd: 1, Imm: 0},
	}}
	for i := 0; i < body; i++ {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpAddI, Rd: isa.Reg(2 + i%6), Rs1: isa.Reg(2 + i%6), Imm: int64(i)})
	}
	p.Instrs = append(p.Instrs,
		isa.Instr{Op: isa.OpXor, Rd: 8, Rs1: 8, Rs2: 1},
		isa.Instr{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1},
		isa.Instr{Op: isa.OpCmpI, Rs1: 1, Imm: 1 << 30},
		isa.Instr{Op: isa.OpJlt, Imm: 1},
	)
	return p
}

// TestRunBlockSteadyStateAllocFree pins the block engine's allocation
// contract: retiring whole blocks — fused ALU segments, memory ops and
// branches included — performs zero heap allocations per call.
func TestRunBlockSteadyStateAllocFree(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
        movi r2, 4096
    loop:
        add   r4, r1, r2
        load  r3, [r4]
        store [r4+8], r3
        addi  r1, r1, 64
        andi  r1, r1, 0xFFF
        jmp   loop
    `)
	m := mem.NewMemory(1 << 20)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := MustNewCore(DefaultConfig(), prog, m, h)
	core.ClearSuperblocks()
	ctx := coro.NewContext(0, 0, m.Size()-8)

	var res BlockResult
	for i := 0; i < 50; i++ {
		if err := core.RunBlock(ctx, false, 100, 0, Horizon{}, &res); err != nil {
			t.Fatalf("warm-up block %d: %v", i, err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := core.RunBlock(ctx, false, 100, 0, Horizon{}, &res); err != nil {
			t.Fatalf("block: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunBlock allocated %.1f times per run, want 0", allocs)
	}
}

// benchRunBlock times RunBlock on core, blockFuel instructions per op,
// after a warm-up, and reports ns/instr.
func benchRunBlock(b *testing.B, core *Core, ctx *coro.Context) {
	const blockFuel = 1024
	var res BlockResult
	if err := core.RunBlock(ctx, false, 10_000, 0, Horizon{}, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RunBlock(ctx, false, blockFuel, 0, Horizon{}, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockFuel), "ns/instr")
}

// BenchmarkCoreBlock measures the block engine on an ALU-heavy loop (a
// 64-instruction straight-line body), the shape the fast path exists
// for.
func BenchmarkCoreBlock(b *testing.B) {
	prog := aluLoopProgram(64)
	m := mem.NewMemory(1 << 20)
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	core.ClearSuperblocks()
	benchRunBlock(b, core, coro.NewContext(0, 0, m.Size()-8))
}

// BenchmarkCoreObservedALU runs BenchmarkCoreSuperblock's ALU-heavy loop
// under a no-op observer: the loop trace runs as it does unobserved, and
// the only events are the latch's branch events. Its ns/instr against
// BenchmarkCoreSuperblock's is what profiling ALU code costs.
func BenchmarkCoreObservedALU(b *testing.B) {
	prog := aluLoopProgram(64)
	m := mem.NewMemory(1 << 20)
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	core.Observe(nopObserver{})
	benchRunBlock(b, core, coro.NewContext(0, 0, m.Size()-8))
}

// BenchmarkCoreObserved measures the per-instruction cost of a profiled
// run in steady state: a load/store loop under a no-op observer, two
// retire events and one branch event per six-instruction lap. Run with
// -benchmem: the expectation is 0 allocs/op.
func BenchmarkCoreObserved(b *testing.B) {
	prog := isa.MustAssemble(`
        movi r1, 0
        movi r2, 4096
    loop:
        add   r4, r1, r2
        load  r3, [r4]
        store [r4+8], r3
        addi  r1, r1, 64
        andi  r1, r1, 0xFFF
        jmp   loop
    `)
	m := mem.NewMemory(1 << 20)
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	core.Observe(nopObserver{})
	benchRunBlock(b, core, coro.NewContext(0, 0, m.Size()-8))
}
