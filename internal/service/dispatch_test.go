package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func multiConfig(t *testing.T, cores int, rate float64, requests int) (Config, Cell) {
	t.Helper()
	cfg, err := Config{
		Requests: requests,
		Rates:    []float64{rate},
		Policies: []Policy{EventAware},
		Topology: machine.Topology{Cores: cores},
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, Cell{Policy: EventAware, Rate: rate}
}

// TestDispatcherPerCoreConservation: every request the dispatcher
// assigns to a core is accounted for by that core (completed or shed —
// local queues are sized so cores never drop), and globally every
// generated request ends as exactly one of completed, dropped or shed.
func TestDispatcherPerCoreConservation(t *testing.T) {
	cfg, cl := multiConfig(t, 4, 8, 1200)
	d, err := newDispatcher(core.DefaultMachine(), cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.serve(); err != nil {
		t.Fatal(err)
	}

	var assigned, done uint64
	for i, c := range d.cores {
		s := &c.reg.Service
		if s.Dropped != 0 {
			t.Errorf("core %d dropped %d requests; local queues must never overflow", i, s.Dropped)
		}
		if s.Admitted != s.Arrivals {
			t.Errorf("core %d admitted %d of %d assigned", i, s.Admitted, s.Arrivals)
		}
		if s.Completed+s.Shed != s.Arrivals {
			t.Errorf("core %d: completed %d + shed %d != assigned %d", i, s.Completed, s.Shed, s.Arrivals)
		}
		if s.Arrivals == 0 {
			t.Errorf("core %d was assigned no requests; the balancer is not spreading load", i)
		}
		assigned += s.Arrivals
		done += s.Completed + s.Shed
	}
	if d.arr.generated != uint64(cfg.Requests) {
		t.Fatalf("generated %d of %d requests", d.arr.generated, cfg.Requests)
	}
	if assigned+d.dropped != d.arr.generated {
		t.Errorf("assigned %d + dropped %d != generated %d", assigned, d.dropped, d.arr.generated)
	}
	if done+d.dropped != d.arr.generated {
		t.Errorf("completed+shed %d + dropped %d != generated %d", done, d.dropped, d.arr.generated)
	}

	// The merged report tells the same story.
	cs := d.stats()
	if cs.Completed+cs.Dropped+cs.Shed != cs.Requests {
		t.Errorf("merged stats: completed %d + dropped %d + shed %d != arrivals %d",
			cs.Completed, cs.Dropped, cs.Shed, cs.Requests)
	}
	if cs.Cores != 4 {
		t.Errorf("merged stats report %d cores, want 4", cs.Cores)
	}
}

// TestRunCellMultiDeterministicRepeats: the same multi-core cell served
// twice in-process produces identical stats and histograms (the
// GOMAXPROCS axis is covered end-to-end in the repro package's
// TestServeMulticoreDeterministic).
func TestRunCellMultiDeterministicRepeats(t *testing.T) {
	cfg, cl := multiConfig(t, 2, 6, 600)
	var ref CellStats
	for i := 0; i < 3; i++ {
		cs, err := RunCell(core.DefaultMachine(), cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = cs
			continue
		}
		if cs.Hist.String() != ref.Hist.String() {
			t.Fatalf("run %d: sojourn histogram diverged", i)
		}
		a, b := cs, ref
		a.Hist, b.Hist = nil, nil
		if a != b {
			t.Fatalf("run %d: stats diverged:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

// TestDispatcherSteadyStateAllocs: once the core goroutines are up and
// the first quanta have warmed the slot/queue structures, a full
// admit → balance → quantum barrier round performs zero allocations —
// the same gate internal/machine holds its kernel to.
func TestDispatcherSteadyStateAllocs(t *testing.T) {
	// A request count the measured rounds cannot exhaust: the cell must
	// stay mid-flight (arrivals pumping, cores serving) while we count.
	cfg, cl := multiConfig(t, 2, 6, 1_000_000)
	d, err := newDispatcher(core.DefaultMachine(), cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	round := func() {
		d.pump()
		d.assign()
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("dispatch round allocates %.1f objects per quantum in steady state, want 0", avg)
	}
}
