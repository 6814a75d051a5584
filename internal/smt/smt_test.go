package smt

import (
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

const chaseSrc = `
    main:
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt main
        halt
`

func tinyCaches() mem.Config {
	c := mem.DefaultConfig()
	c.L1Size = 256
	c.L1Ways = 1
	c.L2Size = 1 << 10
	c.L2Ways = 2
	c.L3Size = 4 << 10
	c.L3Ways = 4
	return c
}

func buildChain(m *mem.Memory, n int, seed int64) uint64 {
	base := m.Alloc(uint64(n)*64, 64)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		m.MustWrite64(base+uint64(perm[i])*64, base+uint64(perm[(i+1)%n])*64)
	}
	return base + uint64(perm[0])*64
}

func machine(t *testing.T) (*cpu.Core, *mem.Memory) {
	t.Helper()
	prog := isa.MustAssemble(chaseSrc)
	m := mem.NewMemory(4 << 20)
	h := mem.MustNewHierarchy(tinyCaches())
	return cpu.MustNewCore(cpu.DefaultConfig(), prog, m, h), m
}

func chaser(m *mem.Memory, id int, iters int64, head uint64) *coro.Context {
	ctx := coro.NewContext(id, 0, m.Size()-uint64(id+1)*4096)
	ctx.Regs[1] = head
	ctx.Regs[3] = uint64(iters)
	return ctx
}

func run(t *testing.T, k int, nthreads int) exec.Stats {
	t.Helper()
	core, m := machine(t)
	var ctxs []*coro.Context
	for i := 0; i < nthreads; i++ {
		ctxs = append(ctxs, chaser(m, i, 300, buildChain(m, 256, int64(10+i))))
	}
	st, err := Run(core, Config{Contexts: k, MaxSteps: 1 << 24}, ctxs)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ctxs {
		if !c.Halted {
			t.Fatalf("context %d did not halt", i)
		}
	}
	return st
}

func TestSingleContextExposesStalls(t *testing.T) {
	st := run(t, 1, 1)
	if st.Efficiency() > 0.3 {
		t.Errorf("1-context chase efficiency %.2f, want low", st.Efficiency())
	}
	if st.Stall == 0 {
		t.Error("single context should idle on every miss")
	}
}

func TestMoreContextsImproveEfficiency(t *testing.T) {
	prev := -1.0
	for _, k := range []int{1, 2, 4, 8} {
		st := run(t, k, k)
		eff := st.Efficiency()
		if eff < prev-0.02 {
			t.Errorf("efficiency not monotone: k=%d eff=%.3f prev=%.3f", k, eff, prev)
		}
		prev = eff
	}
	// Even 8 contexts cannot fully hide DRAM-bound pointer chasing: the
	// compute-per-miss ratio is ~7 cycles against a ~300-cycle miss.
	st8 := run(t, 8, 8)
	if st8.Efficiency() > 0.5 {
		t.Errorf("8-way SMT efficiency %.2f unexpectedly high", st8.Efficiency())
	}
}

func TestLatencyInflationForComputeBoundPeers(t *testing.T) {
	// A compute-bound thread sharing the core with three equal peers gets
	// roughly a quarter of the issue slots: its latency inflates ~4x. This
	// is the paper's §1 point — SMT cannot prioritize.
	prog := isa.MustAssemble(`
    main:
        addi r3, r3, -1
        cmpi r3, 0
        jgt main
        halt
    `)
	runCompute := func(n int) exec.Stats {
		m := mem.NewMemory(1 << 20)
		core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(tinyCaches()))
		var ctxs []*coro.Context
		for i := 0; i < n; i++ {
			ctx := coro.NewContext(i, 0, m.Size()-uint64(i+1)*1024)
			ctx.Regs[3] = 2000
			ctxs = append(ctxs, ctx)
		}
		st, err := Run(core, Config{Contexts: 4, Quantum: 4, MaxSteps: 1 << 24}, ctxs)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	solo := runCompute(1)
	shared := runCompute(4)
	minLat := shared.Latencies[0]
	for _, l := range shared.Latencies {
		if l < minLat {
			minLat = l
		}
	}
	if minLat < solo.Latencies[0]*3 {
		t.Errorf("co-running latency %d vs solo %d: expected ~4x inflation", minLat, solo.Latencies[0])
	}
}

func TestContextLimitEnforced(t *testing.T) {
	core, m := machine(t)
	var ctxs []*coro.Context
	for i := 0; i < 3; i++ {
		ctxs = append(ctxs, chaser(m, i, 10, buildChain(m, 16, int64(i))))
	}
	if _, err := Run(core, Config{Contexts: 2}, ctxs); err == nil {
		t.Error("exceeding hardware contexts should fail")
	}
	if _, err := Run(core, Config{Contexts: 0}, ctxs[:1]); err == nil {
		t.Error("zero contexts should fail")
	}
	if _, err := Run(core, Config{Contexts: 2}, nil); err == nil {
		t.Error("no contexts should fail")
	}
}

func TestYieldsAreInvisibleToSMT(t *testing.T) {
	prog := isa.MustAssemble(`
    main:
        yield
        cyield
        addi r3, r3, -1
        cmpi r3, 0
        jgt main
        movi r1, 7
        halt
    `)
	m := mem.NewMemory(1 << 16)
	core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(tinyCaches()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	ctx.Regs[3] = 5
	st, err := Run(core, Config{Contexts: 2, MaxSteps: 1000}, []*coro.Context{ctx})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Result != 7 || ctx.Switches != 0 {
		t.Error("yields must retire as no-ops under SMT")
	}
	if st.Retired == 0 {
		t.Error("stats empty")
	}
}
