package cpu

import (
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestRunSuperblockSteadyStateAllocFree pins the trace tier's allocation
// contract: activations — specialized ALU loops, memoized memory steps,
// guarded branches, lap-batched counter flushes — perform zero heap
// allocations per RunBlock call.
func TestRunSuperblockSteadyStateAllocFree(t *testing.T) {
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
	core.InstallPlan(fastRuns(prog))
	if err := core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("steady-state superblock RunBlock allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCoreSuperblock measures the superblock tier on the identical
// ALU-heavy loop BenchmarkCoreBlock runs: the 64-instruction body plus
// latch compiles into one loop trace whose homogeneous addi run takes
// the switch-free micro-op loop. The ns/instr metric against
// BenchmarkCoreBlock's is the tier's speedup.
func BenchmarkCoreSuperblock(b *testing.B) {
	const blockFuel = 1024
	prog := aluLoopProgram(64)
	m := mem.NewMemory(1 << 20)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := MustNewCore(DefaultConfig(), prog, m, h)
	core.InstallPlan(fastRuns(prog))
	if err := core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
		b.Fatal(err)
	}
	ctx := coro.NewContext(0, 0, m.Size()-8)

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

// BenchmarkCoreSuperblockMem measures the trace tier on a loop with
// resident memory traffic — the shape the residency memo targets: after
// the first lap both lines are L1-resident and every subsequent access
// should take the memoized AccessResident path instead of the full
// hierarchy walk.
func BenchmarkCoreSuperblockMem(b *testing.B) {
	const blockFuel = 1024
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        load r4, [r13+8]
        add  r5, r3, r4
        cmpi r1, 1073741824
        jlt  loop
    `)
	m := mem.NewMemory(1 << 20)
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := MustNewCore(DefaultConfig(), prog, m, h)
	core.InstallPlan(fastRuns(prog))
	if err := core.InstallSuperblocks(sbDeriveSpecs(prog)); err != nil {
		b.Fatal(err)
	}
	ctx := coro.NewContext(0, 0, m.Size()-8)
	ctx.Regs[13] = 4096

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
