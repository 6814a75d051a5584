package exec

import (
	"testing"
	"time"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// switchedTask returns a task whose registers hold 100+r, with PC 17
// and flags -1, on a fresh executor.
func switchedTask(t *testing.T) (*Executor, *Task) {
	core, m := newMachine(t, testImage, 1<<20)
	ctx := coro.NewContext(0, 17, m.Size()-4096)
	for r := isa.Reg(0); r < isa.SP; r++ {
		ctx.Regs[r] = 100 + uint64(r)
	}
	ctx.Flags = -1
	return New(core, DefaultConfig()), NewTask(ctx, coro.Scavenger)
}

// A context switched out and resumed keeps its PC, its flags, its
// in-mask registers and SP, and reads PoisonValue everywhere else.
func TestResumePoisonsOutsideLiveMask(t *testing.T) {
	e, task := switchedTask(t)
	sp := task.Ctx.Regs[isa.SP]
	live := isa.RegMask(0).With(1).With(3)
	e.switchFrom(task, live)
	e.resume(task)
	ctx := task.Ctx
	if ctx.PC != 17 || ctx.Flags != -1 {
		t.Errorf("pc=%d flags=%d after resume, want 17 and -1", ctx.PC, ctx.Flags)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		want := coro.PoisonValue
		switch {
		case r == isa.SP:
			want = sp
		case live.Has(r):
			want = 100 + uint64(r)
		}
		if ctx.Regs[r] != want {
			t.Errorf("r%d = %#x, want %#x", r, ctx.Regs[r], want)
		}
	}
	// The pending switch is consumed: a second resume poisons nothing.
	ctx.Regs[2] = 5
	e.resume(task)
	if ctx.Regs[2] != 5 {
		t.Errorf("second resume poisoned r2: %#x", ctx.Regs[2])
	}
}

// A task re-armed with Reset after a switch is resumed with the
// registers it was re-armed with, none poisoned.
func TestResetTaskIsNotPoisoned(t *testing.T) {
	e, task := switchedTask(t)
	e.switchFrom(task, 0)
	task.Reset()
	for r := isa.Reg(0); r < isa.SP; r++ {
		task.Ctx.Regs[r] = 200 + uint64(r)
	}
	e.resume(task)
	for r := isa.Reg(0); r < isa.SP; r++ {
		if task.Ctx.Regs[r] != 200+uint64(r) {
			t.Errorf("r%d = %#x after Reset and resume, want %#x", r, task.Ctx.Regs[r], 200+uint64(r))
		}
	}
}

// BenchmarkSymmetricChase times the switch layer in isolation: eight
// instances of the hand-instrumented chase (prefetch, yield, load) over
// private 1 MiB pointer chains, interleaved by RunSymmetric on the
// default hierarchy. Nearly every hop is a simulated DRAM miss and a
// switch, so ns/switch prices one retire-switch-resume round.
func BenchmarkSymmetricChase(b *testing.B) {
	const (
		instances = 8
		nodes     = 1 << 14 // 64-byte nodes: 1 MiB per chain
		hops      = 1 << 13
	)
	prog := isa.MustAssemble(testImage)
	m := mem.NewMemory(16 << 20)
	heads := make([]uint64, instances)
	for i := range heads {
		heads[i] = buildChain(m, nodes, int64(i+1))
	}
	var switches uint64
	var elapsed time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
		tasks := make([]*Task, instances)
		for i := range tasks {
			tasks[i] = chaseTask(core, m, i, hops, heads[i])
		}
		e := New(core, DefaultConfig())
		b.StartTimer()
		start := time.Now()
		st, err := e.RunSymmetric(tasks)
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		switches += st.Switches
	}
	if switches > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(switches), "ns/switch")
	}
}
