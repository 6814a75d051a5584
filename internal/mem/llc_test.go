package mem

import (
	"reflect"
	"testing"
)

func testLLCConfig() LLCConfig {
	cfg := DefaultLLCConfig(4)
	cfg.BankPorts = 4
	cfg.QueuePenalty = 8
	cfg.MSHRs = 4
	return cfg
}

func TestLLCConfigValidate(t *testing.T) {
	good := DefaultLLCConfig(8)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LLCConfig)
	}{
		{"banks not power of two", func(c *LLCConfig) { c.Banks = 3 }},
		{"zero banks", func(c *LLCConfig) { c.Banks = 0 }},
		{"line size", func(c *LLCConfig) { c.LineSize = 48 }},
		{"ways", func(c *LLCConfig) { c.Ways = 0 }},
		{"sets not power of two", func(c *LLCConfig) { c.Size = 3 * (256 << 10) }},
		{"latency order", func(c *LLCConfig) { c.LatL3 = 400 }},
		{"LatDRAM past MaxCycles", func(c *LLCConfig) { c.LatDRAM = MaxCycles + 1 }},
		{"LatL3 past MaxCycles", func(c *LLCConfig) { c.LatL3, c.LatDRAM = 1<<63, 1<<63 }},
		{"QueuePenalty past MaxCycles", func(c *LLCConfig) { c.QueuePenalty = MaxCycles + 1 }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// Demand must not change committed tag state until Commit runs: two
// probes of the same missing line both miss, and the line hits only
// after the barrier.
func TestLLCCommitVisibility(t *testing.T) {
	llc, err := NewSharedLLC(testLLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := llc.NewView(0)
	if lvl, _ := v.Demand(0x1000); lvl != LevelDRAM {
		t.Fatalf("cold probe served from %v, want DRAM", lvl)
	}
	if lvl, _ := v.Demand(0x1000); lvl != LevelDRAM {
		t.Fatalf("pre-commit re-probe served from %v, want DRAM (tags frozen in-quantum)", lvl)
	}
	if v.Contains(0x1000) {
		t.Fatal("Contains sees uncommitted line")
	}
	llc.Commit()
	if !v.Contains(0x1000) {
		t.Fatal("committed line not visible")
	}
	if lvl, lat := v.Demand(0x1000); lvl != LevelL3 || lat != llc.Config().LatL3 {
		t.Fatalf("post-commit probe = (%v, %d), want (L3, %d)", lvl, lat, llc.Config().LatL3)
	}
}

// Cores see their own address space: the same line address from two
// cores must not hit on each other's install, but still contends for
// the same sets.
func TestLLCViewIsolation(t *testing.T) {
	llc, err := NewSharedLLC(testLLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	v0, v1 := llc.NewView(0), llc.NewView(1)
	v0.Demand(0x2000)
	llc.Commit()
	if !v0.Contains(0x2000) {
		t.Fatal("owner does not see its committed line")
	}
	if v1.Contains(0x2000) {
		t.Fatal("core 1 false-hits core 0's line")
	}
	if lvl, _ := v1.Demand(0x2000); lvl != LevelDRAM {
		t.Fatalf("core 1 demand served from %v, want DRAM", lvl)
	}
}

// Queue penalties derive from the PREVIOUS quantum's committed load:
// overloading one bank in quantum 1 taxes accesses to that bank in
// quantum 2 and expires by quantum 3 if the load subsides.
func TestLLCBankQueueing(t *testing.T) {
	cfg := testLLCConfig()
	llc, err := NewSharedLLC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := llc.NewView(0)
	// 3*BankPorts accesses, all to bank 0 (stride = banks*lineSize keeps
	// the bank index constant while varying the line).
	stride := uint64(cfg.Banks) * cfg.LineSize
	n := 3 * cfg.BankPorts
	for i := uint64(0); i < n; i++ {
		v.Demand(i * stride)
	}
	llc.Commit()
	if llc.Stats.PeakBankLoad != n {
		t.Fatalf("peak bank load = %d, want %d", llc.Stats.PeakBankLoad, n)
	}
	// Quantum 2: the oversubscription was (3-1)*BankPorts → factor 2.
	wantExtra := cfg.QueuePenalty * 2
	_, lat := v.Demand(0) // hits now (installed at commit)
	if want := cfg.LatL3 + wantExtra; lat != want {
		t.Fatalf("queued hit latency = %d, want %d", lat, want)
	}
	if v.qQueued != 1 || v.qQueueCycles != wantExtra {
		t.Fatalf("queue counters = (%d, %d), want (1, %d)", v.qQueued, v.qQueueCycles, wantExtra)
	}
	llc.Commit()
	// Quantum 3: only one access committed last quantum — no penalty.
	if _, lat := v.Demand(0); lat != cfg.LatL3 {
		t.Fatalf("latency after load subsided = %d, want %d", lat, cfg.LatL3)
	}
}

// Miss bursts beyond the shared MSHR budget tax DRAM-bound accesses in
// the following quantum; LLC hits pay only bank queueing.
func TestLLCMSHRPressure(t *testing.T) {
	cfg := testLLCConfig()
	cfg.BankPorts = 0 // isolate the MSHR term
	llc, err := NewSharedLLC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := llc.NewView(0)
	n := 2 * cfg.MSHRs
	for i := uint64(0); i < n; i++ {
		v.Demand(i * cfg.LineSize)
	}
	llc.Commit()
	if _, lat := v.Demand(0); lat != cfg.LatL3 {
		t.Fatalf("hit pays MSHR penalty: lat = %d, want %d", lat, cfg.LatL3)
	}
	wantMiss := cfg.LatDRAM + cfg.QueuePenalty // (2-1)*MSHRs over → factor 1
	if _, lat := v.Demand((n + 1) * cfg.LineSize); lat != wantMiss {
		t.Fatalf("pressured miss latency = %d, want %d", lat, wantMiss)
	}
}

// Commit applies logs in view-registration order, so a capacity
// conflict between cores resolves identically no matter which core's
// goroutine ran first — replaying the same quantum gives the same tags.
func TestLLCCommitOrderDeterministic(t *testing.T) {
	run := func() LLCStats {
		cfg := testLLCConfig()
		llc, err := NewSharedLLC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v0, v1 := llc.NewView(0), llc.NewView(1)
		// Both cores stream cold lines (set pressure) while re-touching a
		// hot set (hits after the first commit).
		for i := uint64(0); i < 4096; i++ {
			v0.Demand(i * cfg.LineSize)
			v0.Demand((i % 32) * cfg.LineSize)
			v1.Demand(i * cfg.LineSize)
			v1.Demand((i % 32) * cfg.LineSize)
			if i%64 == 63 {
				llc.Commit()
			}
		}
		llc.Commit()
		return llc.Stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if a.Misses == 0 || a.Hits == 0 {
		t.Fatalf("degenerate workload: %+v", a)
	}
}

// A hierarchy with an attached view routes L2 misses to the LLC and
// leaves the private-l3 model untouched when detached.
func TestHierarchyAttachLLC(t *testing.T) {
	cfg := DefaultConfig()
	llcCfg := DefaultLLCConfig(1)
	llc, err := NewSharedLLC(llcCfg)
	if err != nil {
		t.Fatal(err)
	}
	h := MustNewHierarchy(cfg)
	h.AttachLLC(llc.NewView(0))
	if h.LLC() == nil {
		t.Fatal("LLC() lost the attached view")
	}

	r := h.Access(0x4000, 0)
	if r.Level != LevelDRAM || r.Latency != llcCfg.LatDRAM {
		t.Fatalf("cold access = %+v, want DRAM @%d", r, llcCfg.LatDRAM)
	}
	llc.Commit()
	// Still an L1 hit on re-access (installed privately).
	if r := h.Access(0x4000, 10); r.Level != LevelL1 {
		t.Fatalf("re-access level = %v, want L1", r.Level)
	}
	// Contains at L3 scope consults the shared LLC.
	if !h.Contains(0x4000, 10, LevelL3) {
		t.Fatal("Contains(L3) misses committed shared line")
	}
	if h.Stats.Accesses[LevelDRAM] != 1 || h.Stats.Accesses[LevelL1] != 1 {
		t.Fatalf("stats = %+v", h.Stats.Accesses)
	}
}
