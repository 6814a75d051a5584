package pebs

import (
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// sampledCore builds a core over a load/store loop — two retire events
// and one taken branch per six-instruction lap — with a Sampler on the
// default periods, LBR included, and a buffer of bufferSize samples
// attached, and retires warm instructions through it.
func sampledCore(t testing.TB, bufferSize int, warm uint64) (*cpu.Core, *coro.Context, *Sampler) {
	t.Helper()
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
	core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	cfg := DefaultConfig()
	cfg.BufferSize = bufferSize
	s := NewSampler(cfg, len(prog.Instrs))
	core.Observe(s)
	ctx := coro.NewContext(0, 0, m.Size()-8)
	var res cpu.BlockResult
	if err := core.RunBlock(ctx, false, warm, 0, cpu.Horizon{}, &res); err != nil {
		t.Fatal(err)
	}
	return core, ctx, s
}

// TestSamplerOnTracesAllocFree pins the profiled hot path end to end: a
// core born with its traces and a Sampler attached runs the traces, and
// once the sample buffer is full retires its steady state — memory
// steps' samples counted as dropped, taken branches into the LBR ring,
// ring snapshots — with zero heap allocations.
func TestSamplerOnTracesAllocFree(t *testing.T) {
	core, ctx, s := sampledCore(t, 64, 100_000)
	if s.Dropped == 0 {
		t.Fatalf("%d samples and none dropped after warm-up: the buffer is not full", len(s.Samples))
	}
	var res cpu.BlockResult
	allocs := testing.AllocsPerRun(500, func() {
		if err := core.RunBlock(ctx, false, 100, 0, cpu.Horizon{}, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state sampled RunBlock allocated %.1f times per run, want 0", allocs)
	}
	if core.SuperblockStats().Activations == 0 {
		t.Error("the sampled run entered no trace")
	}
	if len(s.LBR().Edges) == 0 {
		t.Error("the sampled run took no LBR snapshot")
	}
}

// BenchmarkCoreSampled measures a profiled run as the pipeline runs it:
// the load/store loop under the PEBS sampler, in steady state with the
// buffer full. Run with -benchmem: the expectation is 0 allocs/op.
func BenchmarkCoreSampled(b *testing.B) {
	const blockFuel = 1024
	core, ctx, _ := sampledCore(b, 64, 100_000)
	var res cpu.BlockResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RunBlock(ctx, false, blockFuel, 0, cpu.Horizon{}, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockFuel), "ns/instr")
}
