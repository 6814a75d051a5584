package service

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// A self-clocked cell driven in deadline slices must be byte-identical
// to the same cell run unsliced, for every policy: the loops' budget
// stop is a fuel split and everything that must survive the cut (CPU
// holder, open episode, SMT slice and wake-ups) lives on the loop. The
// closed-loop twins are exec's TestTicker*Equivalence and smt's
// TestRunnerSlicedEquivalence.
func TestServeSlicedEquivalence(t *testing.T) {
	cfg, err := testConfig().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Requests = 120
	for _, pol := range []Policy{Agnostic, Sidecar, EventAware, OSThread, SMT} {
		cl := Cell{Policy: pol, Rate: 4}
		serve := func(slice uint64) (CellStats, *cell) {
			c, err := newCell(core.DefaultMachine(), cfg, cl, exec.Config{}, true)
			if err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			deadline, slices := c.ex.Core.Now, 0
			for c.Pending() {
				if slice == 0 {
					deadline = exec.NoDeadline
				} else {
					deadline += slice
				}
				if err := c.run(deadline); err != nil {
					t.Fatalf("%s, slice %d: %v", pol, slice, err)
				}
				slices++
			}
			if slice == 257 && slices < 2 {
				t.Errorf("%s: slicing untested: one slice sufficed", pol)
			}
			return summarize(cl, []*cell{c}, 0), c
		}
		ref, refCell := serve(0)
		conservation(t, ref, uint64(cfg.Requests))
		for _, slice := range []uint64{1, 257, 4096} {
			got, c := serve(slice)
			if got.Hist.String() != ref.Hist.String() {
				t.Errorf("%s, slice %d: sojourn table diverged", pol, slice)
			}
			if !reflect.DeepEqual(c.led.Sojourn, refCell.led.Sojourn) {
				t.Errorf("%s, slice %d: sojourn histogram diverged", pol, slice)
			}
			a, b := got, ref
			a.Hist, b.Hist = nil, nil
			if a != b {
				t.Errorf("%s, slice %d: stats diverged\n got %+v\nwant %+v", pol, slice, a, b)
			}
		}
	}
}

// Every layer reports a starved run as the one sentinel, wrapped with
// its own context.
func TestFuelExhaustionIsOneError(t *testing.T) {
	mach := core.DefaultMachine()
	closed := func(run func(h *core.Harness, img *core.Image, ts *core.TaskSet) error) error {
		h, err := core.NewHarness(mach, workloads.PointerChase{Nodes: 1024, Hops: 400, Instances: 2})
		if err != nil {
			t.Fatal(err)
		}
		img := h.Baseline()
		ts, err := h.Tasks(img, "chase", coro.Primary, 2)
		if err != nil {
			t.Fatal(err)
		}
		return run(h, img, ts)
	}
	serve := func(cores int) error {
		cfg := testConfig()
		cfg.MaxSteps = 2000
		cfg.Topology = machine.Topology{Cores: cores}
		_, err := RunCell(mach, cfg, Cell{Policy: EventAware, Rate: 4})
		return err
	}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"solo run", closed(func(h *core.Harness, img *core.Image, ts *core.TaskSet) error {
			_, err := h.NewExecutor(img, exec.Config{MaxSteps: 50}).RunSolo(ts.Tasks[0])
			return err
		})},
		{"smt run", closed(func(h *core.Harness, img *core.Image, _ *core.TaskSet) error {
			_, err := h.RunSMT(img, "chase", 2, exec.Config{MaxSteps: 50})
			return err
		})},
		{"1-core serve cell", serve(1)},
		{"2-core serve cell", serve(2)},
	} {
		if !errors.Is(tc.err, exec.ErrFuelExhausted) {
			t.Errorf("%s: error %v does not wrap exec.ErrFuelExhausted", tc.name, tc.err)
		}
	}
}

// goroutineProbe is a cpu.Observer that reads runtime.NumGoroutine at
// every event its core emits, that is, from inside RunQuantum.
type goroutineProbe struct {
	base, events, other int // other: a count that was not base, 0 if none
}

func (p *goroutineProbe) check() {
	p.events++
	if n := runtime.NumGoroutine(); n != p.base {
		p.other = n
	}
}

func (p *goroutineProbe) OnRetire(cpu.RetireEvent) { p.check() }
func (p *goroutineProbe) OnBranch(cpu.BranchEvent) { p.check() }

// The barrier kernel runs every core on the caller's goroutine: for
// both of its consumers and on every path, no goroutine is started
// while quanta run and none is left behind.
func TestKernelGoroutineLifetime(t *testing.T) {
	topo := machine.DefaultTopology(2)
	rc := machine.RunConfig{Spec: workloads.PointerChase{Nodes: 1024, Hops: 400, Instances: 4}}
	newMachine := func(rc machine.RunConfig) *machine.Machine {
		m, err := machine.New(topo, rc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// runMachine steps the machine to completion, holding the goroutine
	// count at its starting value after every Step, then Runs it.
	runMachine := func(name string, rc machine.RunConfig) error {
		m := newMachine(rc)
		base := runtime.NumGoroutine()
		for {
			done, err := m.Step()
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("%s: %d goroutines after Step, %d before the run", name, n, base)
			}
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		_, err := m.Run()
		return err
	}
	if err := runMachine("machine, normal completion", rc); err != nil {
		t.Error(err)
	}
	starved := rc
	starved.Exec.MaxSteps = 3000
	if err := runMachine("machine, core error mid-run", starved); !errors.Is(err, exec.ErrFuelExhausted) {
		t.Errorf("starved machine returned %v", err)
	}
	m := newMachine(rc)
	m.Close()
	m.Close()
	if done, err := m.Step(); !done || err != nil {
		t.Errorf("Step after Close = (%v, %v), want (true, nil)", done, err)
	}

	cfg, cl := multiConfig(t, 2, 6, 300)
	// serve runs a dispatched cell with a probe on every core.
	serve := func(name string, cfg Config) error {
		d, err := newDispatcher(core.DefaultMachine(), cfg, cl, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		probes := make([]goroutineProbe, len(d.cores))
		for i, c := range d.cores {
			probes[i].base = base
			c.ex.Core.Observe(&probes[i])
		}
		err = d.serve()
		for i, p := range probes {
			if p.events == 0 {
				t.Errorf("%s: core %d emitted no events, so nothing was checked", name, i)
			}
			if p.other != 0 {
				t.Errorf("%s: core %d ran a quantum with %d goroutines alive, %d before the run", name, i, p.other, base)
			}
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s: %d goroutines after the run, %d before", name, n, base)
		}
		return err
	}
	if err := serve("serve, normal completion", cfg); err != nil {
		t.Error(err)
	}
	cfg.MaxSteps = 3000
	if err := serve("serve, core error mid-run", cfg); !errors.Is(err, exec.ErrFuelExhausted) {
		t.Errorf("starved cell returned %v", err)
	}
}

// pollState is everything a Poll may touch: the ledger, the admission
// queue, the in-flight order, every slot and its context, the arrival
// process, the batch cursors.
type pollState struct {
	led        metrics.Service
	q          queue
	fifo       []int
	slots      []slot
	ctxs       []coro.Context
	next, gen  uint64
	bnext, idx int
}

func snapPoll(c *cell) pollState {
	s := pollState{led: c.led, q: c.q, fifo: append([]int(nil), c.fifo...), next: c.arr.next, gen: c.arr.generated, bnext: c.bnext, idx: c.scavIdx}
	s.q.buf = append([]request(nil), c.q.buf...)
	for _, sl := range c.slots {
		s.slots = append(s.slots, *sl)
		s.ctxs = append(s.ctxs, *sl.task.Ctx)
	}
	return s
}

// The scheduling loops skip the Poll a dormant conditional yield used to
// trigger on the strength of exec.Source's idempotence clause: until the
// clock reaches the cycle a Poll returned, with no halt in between,
// another Poll changes nothing and returns that cycle again. Hold the
// serving cell to it, by polling at every cut of a finely sliced run:
// twice in a row at one cycle, and again at the next cut whenever no halt
// and no arrival fell in between.
func TestCellPollIdempotent(t *testing.T) {
	cfg, err := testConfig().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Requests = 120
	for _, pol := range []Policy{Agnostic, Sidecar, EventAware, SMT} {
		c, err := newCell(core.DefaultMachine(), cfg, Cell{Policy: pol, Rate: 4}, exec.Config{}, true)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		halts := func() uint64 { return c.led.Completed + c.led.BatchOps }
		var (
			due, haltsAtPoll uint64
			carried, twice   int
		)
		for deadline := c.ex.Core.Now; c.Pending(); {
			deadline += 61
			if err := c.run(deadline); err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			now := c.ex.Core.Now
			if due != 0 && now < due && halts() == haltsAtPoll {
				before := snapPoll(c)
				if got := c.Poll(); got != due || !reflect.DeepEqual(snapPoll(c), before) {
					t.Fatalf("%s: Poll at cycle %d, before the %d a halt-free earlier Poll returned, returned %d or changed state", pol, now, due, got)
				}
				carried++
			}
			due, haltsAtPoll = c.Poll(), halts()
			if due <= now {
				t.Fatalf("%s: Poll at cycle %d returned %d, not strictly in the future", pol, now, due)
			}
			after := snapPoll(c)
			if again := c.Poll(); again != due || !reflect.DeepEqual(snapPoll(c), after) {
				t.Fatalf("%s: second Poll at cycle %d returned %d after %d, or changed state", pol, now, again, due)
			}
			twice++
		}
		if carried == 0 || twice == 0 {
			t.Errorf("%s: property untested (%d carried, %d repeated polls)", pol, carried, twice)
		}
		conservation(t, summarize(Cell{Policy: pol, Rate: 4}, []*cell{c}, 0), uint64(cfg.Requests))
	}
}

// The mechanism behind a serve cell's host cost, as integers
// (cpu.SuperblockStats): on the two cells the tier ledger in
// ARCHITECTURE §7 reports — the benchmark's serve-1core agnostic cell at
// 4 req/µs and its serve-mcore event-aware cell at 8, same configuration
// and seed — the batch loop's laps between arrivals are retired in closed
// form, not walked. The counts repeat exactly run for run and are logged
// for that table (go test -run TestServeCellsSkipBatchLaps -v); what is
// asserted is the share, which only a change of mechanism moves. -short
// serves a tenth of the requests.
func TestServeCellsSkipBatchLaps(t *testing.T) {
	mach := core.DefaultMachine()
	mach.MemBytes, mach.Seed = 32<<20, 1
	for _, tc := range []struct {
		cl       Cell
		cores    int
		requests int
		minShare float64 // of all instructions, retired in skipped laps
	}{
		{Cell{Policy: Agnostic, Rate: 4}, 1, 60_000, 0.95},
		{Cell{Policy: EventAware, Rate: 8}, 4, 100_000, 0.75},
	} {
		cfg := testConfig()
		cfg.Queue, cfg.Requests, cfg.Topology.Cores = 64, tc.requests, tc.cores
		if testing.Short() {
			cfg.Requests /= 10
		}
		cfg, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		var cells []*cell
		if tc.cores == 1 {
			c, err := newCell(mach, cfg, tc.cl, exec.Config{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(exec.NoDeadline); err != nil {
				t.Fatal(err)
			}
			cells = []*cell{c}
		} else {
			d, err := newDispatcher(mach, cfg, tc.cl, exec.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.serve(); err != nil {
				t.Fatal(err)
			}
			cells = d.cores
		}
		var steps uint64
		var sb cpu.SuperblockStats
		for _, c := range cells {
			steps += c.loop.Steps()
			st := c.ex.Core.SuperblockStats()
			sb.Activations += st.Activations
			sb.LapsInterpreted += st.LapsInterpreted
			sb.LapsSkipped += st.LapsSkipped
		}
		t.Logf("%s@%g on %d core(s), %d requests: %d instructions, %d trace entries, %d laps interpreted, %d laps skipped",
			tc.cl.Policy, tc.cl.Rate, tc.cores, cfg.Requests, steps, sb.Activations, sb.LapsInterpreted, sb.LapsSkipped)
		// The only counting loop in the image is the instrumented batch
		// loop, five instructions a lap: addi; cyield; addi; cmpi; jgt.
		if share := float64(5*sb.LapsSkipped) / float64(steps); share < tc.minShare {
			t.Errorf("%s@%g: %.1f%% of %d instructions retired in skipped laps, want ≥ %.0f%%",
				tc.cl.Policy, tc.cl.Rate, 100*share, steps, 100*tc.minShare)
		}
	}
}

// The same for the SMT loop (exec.RoundStats): on the benchmark's two
// serve-1core smt cells, 4 and 8 req/µs, the rounds in which only the two
// batch loops are runnable — taking turns a 4-cycle lap at a time — are
// retired in closed form, not slice by slice. The counts are logged (go
// test -run TestServeSMTCellSkipsRounds -v); the share of slices skipped
// is asserted. -short serves a tenth of the requests.
func TestServeSMTCellSkipsRounds(t *testing.T) {
	mach := core.DefaultMachine()
	mach.MemBytes, mach.Seed = 32<<20, 1
	cfg := testConfig()
	cfg.Queue, cfg.Requests = 64, 60_000
	if testing.Short() {
		cfg.Requests /= 10
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rate     float64
		minShare float64 // of all slices, retired in skipped rounds
	}{{4, 0.7}, {8, 0.45}} {
		c, err := newCell(mach, cfg, Cell{Policy: SMT, Rate: tc.rate}, exec.Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.run(exec.NoDeadline); err != nil {
			t.Fatal(err)
		}
		rs := c.loop.(*exec.SMT).RoundStats()
		t.Logf("smt@%g, %d requests: %d instructions, %d single slices, %d skips retiring %d rounds (%d slices)",
			tc.rate, cfg.Requests, c.loop.Steps(), rs.Slices, rs.Skips, rs.Rounds, rs.SkippedSlices)
		if share := float64(rs.SkippedSlices) / float64(rs.Slices+rs.SkippedSlices); share < tc.minShare {
			t.Errorf("smt@%g: %.1f%% of %d slices retired in skipped rounds, want ≥ %.0f%%",
				tc.rate, 100*share, rs.Slices+rs.SkippedSlices, 100*tc.minShare)
		}
	}
}
