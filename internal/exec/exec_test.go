package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// tinyCaches returns a hierarchy config small enough that modest working
// sets generate L2/L3 misses deterministically.
func tinyCaches() mem.Config {
	c := mem.DefaultConfig()
	c.L1Size = 256 // 4 lines
	c.L1Ways = 1
	c.L2Size = 1 << 10 // 16 lines
	c.L2Ways = 2
	c.L3Size = 4 << 10 // 64 lines
	c.L3Ways = 4
	return c
}

// buildChain writes a pseudo-random circular pointer chain of n nodes
// (64-byte spacing) and returns the base address.
func buildChain(m *mem.Memory, n int, seed int64) uint64 {
	base := m.Alloc(uint64(n)*64, 64)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		from := base + uint64(perm[i])*64
		to := base + uint64(perm[(i+1)%n])*64
		m.MustWrite64(from, to)
	}
	return base + uint64(perm[0])*64
}

// The combined test image: an instrumented pointer chase (primary-style
// yields) and an instrumented compute loop (scavenger-style conditional
// yields). Masks are hand-derived live sets (r1,r3,SP for the chase;
// r4,r5,SP for the compute loop).
const testImage = `
    chase:
        prefetch [r1]
        yield 0x800a        ; r1, r3, sp
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt chase
        halt
    scav:
        addi r5, r5, 1
        cyield 0x8030       ; r4, r5, sp
        addi r4, r4, -1
        cmpi r4, 0
        jgt scav
        mov r1, r5
        halt
`

func newMachine(t *testing.T, src string, memBytes uint64) (*cpu.Core, *mem.Memory) {
	t.Helper()
	prog := isa.MustAssemble(src)
	m := mem.NewMemory(memBytes)
	h := mem.MustNewHierarchy(tinyCaches())
	core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, h)
	return core, m
}

func chaseTask(core *cpu.Core, m *mem.Memory, id int, iters int64, head uint64) *Task {
	ctx := coro.NewContext(id, core.Prog.Symbols["chase"], m.Size()-uint64(id+1)*4096)
	ctx.Regs[1] = head
	ctx.Regs[3] = uint64(iters)
	return NewTask(ctx, coro.Primary)
}

func scavTask(core *cpu.Core, m *mem.Memory, id int, iters int64) *Task {
	ctx := coro.NewContext(id, core.Prog.Symbols["scav"], m.Size()-uint64(id+1)*4096)
	ctx.Regs[4] = uint64(iters)
	return NewTask(ctx, coro.Scavenger)
}

func TestRunSoloChase(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 256, 1)
	task := chaseTask(core, m, 0, 500, head)
	e := New(core, DefaultConfig())
	st, err := e.RunSolo(task)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Ctx.Halted {
		t.Fatal("task did not halt")
	}
	if st.Cycles == 0 || st.Busy == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	// 256 nodes × 64 B = 16 KiB footprint over tiny caches: heavy misses.
	// Note: the prefetch immediately before each load absorbs the miss
	// into busy cycles only if time passes in between — solo, it doesn't,
	// so stall must dominate.
	if st.StallFraction() < 0.5 {
		t.Errorf("solo chase stall fraction = %.2f, want > 0.5", st.StallFraction())
	}
	if st.Switches != 0 {
		t.Error("solo run must not switch")
	}
}

func TestRunSymmetricPreservesResultsAndHidesStall(t *testing.T) {
	// Solo reference.
	coreA, mA := newMachine(t, testImage, 1<<20)
	headA := buildChain(mA, 256, 2)
	soloTask := chaseTask(coreA, mA, 0, 400, headA)
	eA := New(coreA, DefaultConfig())
	soloStats, err := eA.RunSolo(soloTask)
	if err != nil {
		t.Fatal(err)
	}

	// Eight interleaved chases over identical chains in separate regions.
	coreB, mB := newMachine(t, testImage, 4<<20)
	e := New(coreB, DefaultConfig())
	var tasks []*Task
	var heads []uint64
	for i := 0; i < 8; i++ {
		heads = append(heads, buildChain(mB, 256, 2))
	}
	for i := 0; i < 8; i++ {
		tasks = append(tasks, chaseTask(coreB, mB, i, 400, heads[i]))
	}
	symStats, err := e.RunSymmetric(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if !task.Ctx.Halted {
			t.Fatalf("task %d did not halt", i)
		}
		// Every chase starts at an identical chain layout, so all results
		// (final pointer, relative to base) must agree with the solo run.
		if task.Ctx.Result-heads[i] != soloTask.Ctx.Result-headA {
			t.Errorf("task %d result diverged after interleaving", i)
		}
	}
	if symStats.Switches == 0 {
		t.Fatal("no switches happened")
	}
	// The whole point: interleaving hides stalls.
	if symStats.Efficiency() <= soloStats.Efficiency()*1.5 {
		t.Errorf("symmetric efficiency %.3f did not beat solo %.3f",
			symStats.Efficiency(), soloStats.Efficiency())
	}
}

func TestUnsoundMaskBreaksProgram(t *testing.T) {
	// The chase yield mask deliberately omits r3 (the live iteration
	// counter). Poisoning must corrupt the loop — the run must fault or
	// diverge, proving that liveness is enforced rather than cosmetic.
	badImage := `
    chase:
        prefetch [r1]
        yield 0x8002        ; r1, sp only — r3 is live but unsaved!
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt chase
        halt
    scav:
        addi r5, r5, 1
        cyield 0x8030
        addi r4, r4, -1
        cmpi r4, 0
        jgt scav
        mov r1, r5
        halt
    `
	// Reference: the sound image retires a known instruction count.
	coreRef, mRef := newMachine(t, testImage, 1<<20)
	refA := chaseTask(coreRef, mRef, 0, 50, buildChain(mRef, 64, 3))
	refB := chaseTask(coreRef, mRef, 1, 50, buildChain(mRef, 64, 3))
	if _, err := New(coreRef, DefaultConfig()).RunSymmetric([]*Task{refA, refB}); err != nil {
		t.Fatal(err)
	}

	core, m := newMachine(t, badImage, 1<<20)
	a := chaseTask(core, m, 0, 50, buildChain(m, 64, 3))
	b := chaseTask(core, m, 1, 50, buildChain(m, 64, 3))
	cfg := DefaultConfig()
	cfg.MaxSteps = 1 << 20
	_, err := New(core, cfg).RunSymmetric([]*Task{a, b})
	// The poisoned counter (0xDEADBEEF...) either aborts the loop early
	// (wrong iteration count), spins into fuel exhaustion, or faults.
	// Matching the reference exactly would mean poisoning is broken.
	if err == nil && a.Ctx.Retired == refA.Ctx.Retired && b.Ctx.Retired == refB.Ctx.Retired {
		t.Error("unsound live mask went unnoticed — poisoning is broken")
	}
}

func TestRunDualModeHidesPrimaryMisses(t *testing.T) {
	// Solo instrumented primary (no scavengers): stalls exposed.
	coreA, mA := newMachine(t, testImage, 1<<20)
	headA := buildChain(mA, 256, 4)
	pA := chaseTask(coreA, mA, 0, 400, headA)
	soloStats, err := New(coreA, DefaultConfig()).RunSolo(pA)
	if err != nil {
		t.Fatal(err)
	}

	// Dual mode: same primary plus 4 compute scavengers.
	coreB, mB := newMachine(t, testImage, 1<<20)
	headB := buildChain(mB, 256, 4)
	p := chaseTask(coreB, mB, 0, 400, headB)
	var scavs []*Task
	for i := 1; i <= 4; i++ {
		scavs = append(scavs, scavTask(coreB, mB, i, 1_000_000))
	}
	e := New(coreB, DefaultConfig())
	st, err := e.RunDualMode(p, scavs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ctx.Halted {
		t.Fatal("primary did not halt")
	}
	if p.Ctx.Result-headB != pA.Ctx.Result-headA {
		t.Error("dual-mode primary computed a different result")
	}
	if st.Episodes == 0 {
		t.Fatal("no hide episodes")
	}
	// Efficiency must beat the solo run (scavengers soak the stalls).
	if st.Efficiency() <= soloStats.Efficiency()*1.5 {
		t.Errorf("dual efficiency %.3f vs solo %.3f", st.Efficiency(), soloStats.Efficiency())
	}
	// The primary's own stall cycles must collapse: misses were hidden.
	if p.Ctx.StallCycles >= pA.Ctx.StallCycles/2 {
		t.Errorf("primary stall %d not meaningfully below solo %d",
			p.Ctx.StallCycles, pA.Ctx.StallCycles)
	}
	// Latency accounting exists and the primary wasn't starved.
	if st.PrimaryLatency == 0 || st.PrimaryLatency > soloStats.Cycles*3 {
		t.Errorf("primary latency %d implausible vs solo %d", st.PrimaryLatency, soloStats.Cycles)
	}
}

func TestDualModeScavengerChaining(t *testing.T) {
	// Scavengers that are themselves pointer chases (primary-phase yields
	// inside): hiding one primary miss requires chaining scavengers, the
	// paper's on-demand scaling.
	core, m := newMachine(t, testImage, 2<<20)
	head := buildChain(m, 256, 5)
	p := chaseTask(core, m, 0, 300, head)
	var scavs []*Task
	for i := 1; i <= 4; i++ {
		h := buildChain(m, 256, int64(5+i))
		scavs = append(scavs, chaseTask(core, m, i, 1_000_000, h))
		scavs[i-1].Mode = coro.Scavenger
	}
	st, err := New(core, DefaultConfig()).RunDualMode(p, scavs)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainSwitches == 0 {
		t.Error("pointer-chase scavengers should chain")
	}
	if st.Episodes == 0 || !p.Ctx.Halted {
		t.Error("dual mode did not run properly")
	}
}

func TestDualModeWithoutScavengersDegradesToSolo(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 64, 6)
	p := chaseTask(core, m, 0, 100, head)
	st, err := New(core, DefaultConfig()).RunDualMode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Episodes != 0 || st.Switches != 0 {
		t.Error("no scavengers: no episodes or switches expected")
	}
	if !p.Ctx.Halted {
		t.Error("primary did not halt")
	}
}

func TestHWAssistSkipsUselessYields(t *testing.T) {
	// A chase over a 2-line working set: everything is L1-hot after the
	// first lap, so the presence probe should skip nearly every yield.
	core, m := newMachine(t, testImage, 1<<20)
	base := m.Alloc(128, 64)
	m.MustWrite64(base, base+64)
	m.MustWrite64(base+64, base)
	p := chaseTask(core, m, 0, 200, base)
	scav := scavTask(core, m, 1, 1_000_000)
	cfg := DefaultConfig()
	cfg.HWAssist = true
	st, err := New(core, cfg).RunDualMode(p, []*Task{scav})
	if err != nil {
		t.Fatal(err)
	}
	if st.HWSkips < 190 {
		t.Errorf("HWSkips = %d, want nearly all 200 yields skipped", st.HWSkips)
	}
	if st.Episodes > 10 {
		t.Errorf("episodes = %d, want almost none", st.Episodes)
	}
}

func TestFuelExhaustion(t *testing.T) {
	core, m := newMachine(t, `
    spin:
        jmp spin
    `, 1<<16)
	task := NewTask(coro.NewContext(0, 0, m.Size()-8), coro.Primary)
	cfg := DefaultConfig()
	cfg.MaxSteps = 1000
	_, err := New(core, cfg).RunSolo(task)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("err = %v, want fuel exhaustion", err)
	}
}

func TestRunSymmetricEmpty(t *testing.T) {
	core, _ := newMachine(t, "halt", 1<<16)
	if _, err := New(core, DefaultConfig()).RunSymmetric(nil); err == nil {
		t.Error("empty task list should error")
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	st := Stats{Cycles: 100, Busy: 60, Stall: 30, Retired: 50}
	if st.Efficiency() != 0.6 || st.StallFraction() != 0.3 || st.IPC() != 0.5 {
		t.Error("derived metrics wrong")
	}
	var zero Stats
	if zero.Efficiency() != 0 || zero.StallFraction() != 0 || zero.IPC() != 0 {
		t.Error("zero stats should not divide by zero")
	}
}

func TestDualModeDrainScavengers(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 64, 7)
	p := chaseTask(core, m, 0, 50, head)
	s1 := scavTask(core, m, 1, 3000)
	s2 := scavTask(core, m, 2, 3000)
	cfg := DefaultConfig()
	cfg.KeepScavengersAfterPrimary = true
	st, err := New(core, cfg).RunDualMode(p, []*Task{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Halted != 3 {
		t.Errorf("halted = %d, want all 3 (drain enabled)", st.Halted)
	}
}

func TestTracerReceivesSchedulingEvents(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 128, 21)
	p := chaseTask(core, m, 0, 100, head)
	scav := scavTask(core, m, 1, 1_000_000)
	cfg := DefaultConfig()
	ring := trace.NewRing(1 << 16)
	cfg.Tracer = ring
	st, err := New(core, cfg).RunDualMode(p, []*Task{scav})
	if err != nil {
		t.Fatal(err)
	}
	counts := ring.CountByKind()
	if uint64(counts[trace.EpisodeStart]) != st.Episodes {
		t.Errorf("episode-start events %d != episodes %d", counts[trace.EpisodeStart], st.Episodes)
	}
	if counts[trace.EpisodeEnd] == 0 || counts[trace.SwitchOut] == 0 || counts[trace.Resume] == 0 {
		t.Errorf("missing event kinds: %v", counts)
	}
	if counts[trace.Halt] != 1 {
		t.Errorf("halt events = %d, want 1 (primary)", counts[trace.Halt])
	}
	// Events must be time-ordered.
	evs := ring.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Now < evs[i-1].Now {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

// The nil-tracer fast path: a run without a tracer must produce exactly
// the same statistics as a traced run (tracing observes, never perturbs),
// and a tracer reused across runs via Reset must see each run in
// isolation.
func TestNilTracerFastPathAndRingReuse(t *testing.T) {
	run := func(tracer trace.Tracer) Stats {
		core, m := newMachine(t, testImage, 1<<20)
		head := buildChain(m, 128, 21)
		p := chaseTask(core, m, 0, 100, head)
		scav := scavTask(core, m, 1, 1_000_000)
		cfg := DefaultConfig()
		cfg.Tracer = tracer
		st, err := New(core, cfg).RunDualMode(p, []*Task{scav})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ring := trace.NewRing(1 << 16)
	traced := run(ring)
	untraced := run(nil)
	if fmt.Sprintf("%+v", traced) != fmt.Sprintf("%+v", untraced) {
		t.Errorf("tracing perturbed the run:\ntraced   %+v\nuntraced %+v", traced, untraced)
	}
	firstTotal := ring.Total()
	if firstTotal == 0 {
		t.Fatal("traced run emitted no events")
	}
	ring.Reset()
	rerun := run(ring)
	if fmt.Sprintf("%+v", rerun) != fmt.Sprintf("%+v", traced) {
		t.Errorf("rerun after Reset diverged: %+v vs %+v", rerun, traced)
	}
	if ring.Total() != firstTotal {
		t.Errorf("reused ring saw %d events, first run saw %d", ring.Total(), firstTotal)
	}
}

func TestRunWindowed(t *testing.T) {
	core, m := newMachine(t, testImage, 8<<20)
	var tasks []*Task
	for i := 0; i < 24; i++ {
		tasks = append(tasks, chaseTask(core, m, i, 150, buildChain(m, 128, int64(40+i))))
	}
	st, err := New(core, DefaultConfig()).RunWindowed(tasks, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if !task.Ctx.Halted {
			t.Fatalf("task %d never ran to completion", i)
		}
	}
	if st.Switches == 0 {
		t.Error("windowed run should interleave")
	}

	// Wider windows improve efficiency up to the latency/compute ratio.
	effAt := func(w int) float64 {
		c2, m2 := newMachine(t, testImage, 8<<20)
		var ts []*Task
		for i := 0; i < 24; i++ {
			ts = append(ts, chaseTask(c2, m2, i, 150, buildChain(m2, 128, int64(40+i))))
		}
		s, err := New(c2, DefaultConfig()).RunWindowed(ts, w)
		if err != nil {
			t.Fatal(err)
		}
		return s.Efficiency()
	}
	if e8, e1 := effAt(8), effAt(1); e8 <= e1*1.5 {
		t.Errorf("window 8 (%.3f) should clearly beat window 1 (%.3f)", e8, e1)
	}
}

func TestRunWindowedErrors(t *testing.T) {
	core, m := newMachine(t, testImage, 1<<20)
	task := chaseTask(core, m, 0, 10, buildChain(m, 16, 1))
	e := New(core, DefaultConfig())
	if _, err := e.RunWindowed(nil, 4); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := e.RunWindowed([]*Task{task}, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestEpisodeDurationsBounded(t *testing.T) {
	// The §3.3 runtime promise: the primary waits no longer than its hide
	// target plus one scavenger inter-yield interval (plus switch costs).
	core, m := newMachine(t, testImage, 1<<20)
	head := buildChain(m, 256, 31)
	p := chaseTask(core, m, 0, 300, head)
	scav := scavTask(core, m, 1, 10_000_000)
	cfg := DefaultConfig()
	ring := trace.NewRing(1 << 16)
	cfg.Tracer = ring
	if _, err := New(core, cfg).RunDualMode(p, []*Task{scav}); err != nil {
		t.Fatal(err)
	}
	var target uint64
	checked := 0
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case trace.EpisodeStart:
			target = ev.Arg
		case trace.EpisodeEnd:
			checked++
			// The scav loop yields every ~7 cycles; allow switch costs
			// and one full iteration of slack.
			if ev.Arg > target+120 {
				t.Fatalf("episode ran %d cycles for a %d-cycle target", ev.Arg, target)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no episodes observed")
	}
}

func TestDualModeScavengerHaltsMidEpisode(t *testing.T) {
	// A scavenger that finishes inside a hide window must hand off to the
	// next scavenger (or back to the primary) without losing the episode.
	core, m := newMachine(t, testImage, 1<<20)
	p := chaseTask(core, m, 0, 120, buildChain(m, 256, 51))
	short := scavTask(core, m, 1, 5) // halts almost immediately
	long := scavTask(core, m, 2, 1_000_000)
	st, err := New(core, DefaultConfig()).RunDualMode(p, []*Task{short, long})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ctx.Halted || !short.Ctx.Halted {
		t.Fatal("tasks did not progress")
	}
	if short.Ctx.Result != 5 {
		t.Errorf("short scavenger result %d, want 5", short.Ctx.Result)
	}
	if st.Episodes == 0 {
		t.Error("no episodes despite misses")
	}
}

func TestDualModeAllScavengersExhausted(t *testing.T) {
	// When every scavenger halts, the primary must keep running alone.
	core, m := newMachine(t, testImage, 1<<20)
	p := chaseTask(core, m, 0, 200, buildChain(m, 256, 52))
	s1 := scavTask(core, m, 1, 3)
	s2 := scavTask(core, m, 2, 3)
	_, err := New(core, DefaultConfig()).RunDualMode(p, []*Task{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ctx.Halted || !s1.Ctx.Halted || !s2.Ctx.Halted {
		t.Error("run did not complete after scavenger exhaustion")
	}
}

func TestWindowedFuelExhaustion(t *testing.T) {
	core, m := newMachine(t, "spin:\n jmp spin", 1<<16)
	task := NewTask(coro.NewContext(0, 0, m.Size()-8), coro.Primary)
	cfg := DefaultConfig()
	cfg.MaxSteps = 500
	if _, err := New(core, cfg).RunWindowed([]*Task{task}, 1); !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("err = %v, want fuel exhaustion", err)
	}
}

func TestHideTargetDefaultsToDRAM(t *testing.T) {
	core, _ := newMachine(t, "halt", 1<<16)
	e := New(core, Config{})
	if e.Cfg.HideTarget != core.Hier.Config().LatDRAM {
		t.Errorf("HideTarget = %d, want DRAM latency", e.Cfg.HideTarget)
	}
	if e.Cfg.MaxSteps == 0 {
		t.Error("MaxSteps default missing")
	}
}
