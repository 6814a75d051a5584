package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// defaultRuns holds each experiment's one run on the default machine per
// test binary, by ID: TestGoldenTables and every per-experiment test read
// the same *defaultRun, and none of them writes to its result.
var defaultRuns sync.Map

type defaultRun struct {
	once sync.Once
	res  *Result
	err  error
}

// defaultResult runs experiment id on the default machine the first time
// it is asked for, and returns that run's result every time.
func defaultResult(id string) (*Result, error) {
	v, _ := defaultRuns.LoadOrStore(id, new(defaultRun))
	r := v.(*defaultRun)
	r.once.Do(func() {
		run, err := Lookup(id)
		if err != nil {
			r.err = err
			return
		}
		r.res, r.err = run(core.DefaultMachine())
	})
	return r.res, r.err
}

// runExp returns one experiment's result on the default machine
// (defaultResult) and sanity-checks the result envelope.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	res, err := defaultResult(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || len(res.Tables) == 0 || len(res.Metrics) == 0 {
		t.Fatalf("%s: malformed result: %+v", id, res)
	}
	if !strings.Contains(res.String(), res.Title) {
		t.Errorf("%s: String() missing title", id)
	}
	if res.MetricsString() == "" {
		t.Errorf("%s: no metrics", id)
	}
	return res
}

func TestRegistry(t *testing.T) {
	want := []string{"F1"}
	for i := 1; i <= 21; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("registry = %v, want %v", ids, want)
	}
	var unknown *UnknownIDError
	if _, err := Lookup("nope"); !errors.As(err, &unknown) {
		t.Errorf("bogus lookup: err = %v, want an *UnknownIDError", err)
	}
}

func TestF1Spectrum(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "F1")
	m := res.Metrics
	// OoOE wins (or ties at ~full efficiency) for ~4 ns events and cannot
	// help at 100 ns.
	if m["d4ns_ooo"] < 0.9 {
		t.Errorf("OoOE at 4ns = %.2f, want ~1", m["d4ns_ooo"])
	}
	if m["d100ns_ooo"] > m["d100ns_coro"] {
		t.Errorf("OoOE (%.2f) should lose to coroutines (%.2f) at 100ns",
			m["d100ns_ooo"], m["d100ns_coro"])
	}
	// Coroutines dominate the 100–300 ns band (memory-access latencies,
	// where full hiding needs ~30 concurrent streams) over SMT-8 and OS
	// threads. At ~10 ns SMT's free switches are competitive — the paper
	// targets the band hardware cannot cover.
	for _, d := range []string{"d100ns", "d300ns"} {
		if m[d+"_coro"] <= m[d+"_smt8"] {
			t.Errorf("%s: coro %.2f should beat smt8 %.2f", d, m[d+"_coro"], m[d+"_smt8"])
		}
		if m[d+"_coro"] <= m[d+"_os"] {
			t.Errorf("%s: coro %.2f should beat OS threads %.2f", d, m[d+"_coro"], m[d+"_os"])
		}
	}
	// OS-thread interleaving is hopeless at 100 ns but becomes viable at
	// 10 µs (the paper's "sufficiently long events" regime).
	if m["d100ns_os"] > 0.2 {
		t.Errorf("OS threads at 100ns = %.2f, want tiny", m["d100ns_os"])
	}
	if m["d10000ns_os"] < 0.25 {
		t.Errorf("OS threads at 10µs = %.2f, want viable", m["d10000ns_os"])
	}
	if m["d10000ns_os"] < 5*m["d100ns_os"] {
		t.Errorf("OS viability should grow with duration (%.3f vs %.3f)",
			m["d10000ns_os"], m["d100ns_os"])
	}
}

func TestE1SwitchCost(t *testing.T) {
	res := runExp(t, "E1")
	m := res.Metrics
	if m["coro_full_ns"] >= 10 {
		t.Errorf("full coroutine switch %.1f ns, paper wants <10 ns", m["coro_full_ns"])
	}
	if m["coro_live_ns"] >= m["coro_full_ns"] {
		t.Errorf("live-mask switch %.1f ns should beat full save %.1f ns",
			m["coro_live_ns"], m["coro_full_ns"])
	}
	if m["ratio_thread_over_coro"] < 100 {
		t.Errorf("thread/coro ratio %.0f, want orders of magnitude", m["ratio_thread_over_coro"])
	}
}

func TestE2StallFraction(t *testing.T) {
	res := runExp(t, "E2")
	m := res.Metrics
	// The paper's >60% claim must hold for the memory-bound kernels.
	for _, w := range []string{"chase", "hashjoin", "bst", "scatter"} {
		if m[w+"_stall_frac"] < 0.6 {
			t.Errorf("%s stall fraction %.2f, want >0.6", w, m[w+"_stall_frac"])
		}
	}
	if m["scan_stall_frac"] > 0.4 {
		t.Errorf("cache-friendly scan stalls %.2f of cycles, want small", m["scan_stall_frac"])
	}
	// The B+-tree sits in between: it is the cache-conscious index (wide
	// nodes, shallow depth), stalling less than the binary structures but
	// far more than the scan.
	if !(m["btree_stall_frac"] > 0.4 && m["btree_stall_frac"] < m["bst_stall_frac"]) {
		t.Errorf("btree stall %.2f should sit between scan and bst (%.2f)",
			m["btree_stall_frac"], m["bst_stall_frac"])
	}
}

func TestE3SMTvsCoro(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E3")
	m := res.Metrics
	if !(m["smt1"] < m["smt2"] && m["smt2"] < m["smt8"]) {
		t.Errorf("SMT efficiency should grow with contexts: %v %v %v", m["smt1"], m["smt2"], m["smt8"])
	}
	// SMT-8 plateaus well below full hiding; 32 coroutines go beyond it.
	if m["smt8"] > 0.6 {
		t.Errorf("SMT-8 = %.2f, expected a plateau below 0.6", m["smt8"])
	}
	if m["coro32"] <= m["smt8"]*1.3 {
		t.Errorf("coro-32 (%.2f) should clearly beat SMT-8 (%.2f)", m["coro32"], m["smt8"])
	}
	if m["coro32"] <= m["coro8"] {
		t.Errorf("software concurrency beyond 8 should keep helping: %v vs %v", m["coro32"], m["coro8"])
	}
}

func TestE4PipelineThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E4")
	m := res.Metrics
	for _, w := range []string{"chase", "hashjoin", "bst", "scatter", "binsearch"} {
		if m[w+"_pgo_speedup"] < 1.5 {
			t.Errorf("%s: profile-guided speedup %.2fx, want >1.5x", w, m[w+"_pgo_speedup"])
		}
		if m[w+"_pgo_eff"] < m[w+"_base_eff"] {
			t.Errorf("%s: pipeline reduced efficiency", w)
		}
		// Zero manual annotations, competitive with hand placement.
		if m[w+"_pgo_eff"] < 0.8*m[w+"_manual_eff"] {
			t.Errorf("%s: pgo eff %.2f far below manual %.2f", w, m[w+"_pgo_eff"], m[w+"_manual_eff"])
		}
	}
	// The cache-conscious B+-tree gains least of the indexes — consistent
	// with why databases prefer it — but must still gain, while blind
	// manual annotation actively hurts it.
	if m["btree_pgo_speedup"] < 1.15 {
		t.Errorf("btree: pgo speedup %.2fx, want >1.15x", m["btree_pgo_speedup"])
	}
	if m["btree_manual_eff"] >= m["btree_pgo_eff"] {
		t.Error("btree: manual annotation should lose to profile-guided")
	}
	// The cache-friendly scan must stay essentially uninstrumented.
	if m["scan_pgo_yields"] > 2 {
		t.Errorf("scan got %v yields, want ~0", m["scan_pgo_yields"])
	}
}

func TestE5ThresholdSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E5")
	m := res.Metrics
	never := m["theta_1.01"]
	always := m["theta_0.00"]
	best := m["best_theta"]
	bestEff := -1.0
	for k, v := range m {
		if strings.HasPrefix(k, "theta_") && v > bestEff {
			bestEff = v
		}
	}
	// A tuned threshold beats both extremes (the §3.2 trade-off).
	if bestEff <= never || bestEff <= always {
		t.Errorf("no interior optimum: best %.3f vs always %.3f / never %.3f (θ*=%.2f)",
			bestEff, always, never, best)
	}
}

func TestE6Ablations(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E6")
	m := res.Metrics
	// Coalescing cuts switches roughly 3x on the 3-stream chase.
	if m["ctrue_ltrue_switches"] >= m["cfalse_ltrue_switches"]*0.6 {
		t.Errorf("coalescing did not reduce switches: %v vs %v",
			m["ctrue_ltrue_switches"], m["cfalse_ltrue_switches"])
	}
	// Live masks cut switch cycles at equal switch counts.
	if m["ctrue_ltrue_switch_cycles"] >= m["ctrue_lfalse_switch_cycles"] {
		t.Errorf("live masks did not reduce switch cost: %v vs %v",
			m["ctrue_ltrue_switch_cycles"], m["ctrue_lfalse_switch_cycles"])
	}
	// Both optimizations together give the best efficiency.
	for _, k := range []string{"cfalse_ltrue_eff", "ctrue_lfalse_eff", "cfalse_lfalse_eff"} {
		if m["ctrue_ltrue_eff"] < m[k]-0.005 {
			t.Errorf("full optimizations (%.3f) lost to %s (%.3f)", m["ctrue_ltrue_eff"], k, m[k])
		}
	}
}

func TestE7DualMode(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E7")
	m := res.Metrics
	// Symmetric interleaving inflates primary latency badly; dual-mode
	// stays close to solo.
	if m["sym_latency"] < 2*m["solo_latency"] {
		t.Errorf("symmetric latency %.0f vs solo %.0f: expected inflation", m["sym_latency"], m["solo_latency"])
	}
	if m["dual_latency"] > 1.5*m["solo_latency"] {
		t.Errorf("dual-mode latency %.0f vs solo %.0f: want near-solo", m["dual_latency"], m["solo_latency"])
	}
	// And dual-mode recovers most of the efficiency headroom.
	if m["dual_eff"] < 2*m["solo_eff"] {
		t.Errorf("dual-mode efficiency %.2f vs solo %.2f: scavengers should soak stalls",
			m["dual_eff"], m["solo_eff"])
	}
	if m["dual_episodes"] == 0 {
		t.Error("no episodes")
	}
}

func TestE8ScavengerScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E8")
	m := res.Metrics
	if m["chase_chains_per_episode"] <= m["compute_chains_per_episode"] {
		t.Errorf("chasing scavengers should chain more: %.2f vs %.2f",
			m["chase_chains_per_episode"], m["compute_chains_per_episode"])
	}
	if m["chase_chains_per_episode"] < 0.5 {
		t.Errorf("chase scavengers chains/episode = %.2f, want substantial", m["chase_chains_per_episode"])
	}
}

func TestE9IntervalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E9")
	m := res.Metrics
	// Larger intervals mean more primary-visible overshoot.
	if m["interval_3000_overshoot"] <= m["interval_100_overshoot"] {
		t.Errorf("overshoot should grow with interval: %.0f vs %.0f",
			m["interval_3000_overshoot"], m["interval_100_overshoot"])
	}
	// And longer primary latency.
	if m["interval_3000_latency"] <= m["interval_100_latency"] {
		t.Errorf("latency should grow with interval: %.0f vs %.0f",
			m["interval_3000_latency"], m["interval_100_latency"])
	}
}

func TestE10SamplingPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E10")
	m := res.Metrics
	// Denser sampling: more samples, more overhead, better fidelity.
	if m["scale_1_samples"] <= m["scale_256_samples"] {
		t.Error("denser sampling should take more samples")
	}
	if m["scale_1_overhead"] <= m["scale_256_overhead"] {
		t.Error("denser sampling should cost more")
	}
	if m["scale_1_mae"] > m["scale_256_mae"]+0.02 {
		t.Errorf("denser sampling should not be less accurate: %.3f vs %.3f",
			m["scale_1_mae"], m["scale_256_mae"])
	}
	if m["scale_1_mae"] > 0.15 {
		t.Errorf("dense-sampling miss-rate MAE %.3f too high", m["scale_1_mae"])
	}
}

func TestE11HWAssist(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E11")
	m := res.Metrics
	if m["hw_skips"] == 0 {
		t.Error("presence probe never skipped a yield")
	}
	if m["hw_episodes"] >= m["static_episodes"] {
		t.Errorf("probe should reduce episodes: %v vs %v", m["hw_episodes"], m["static_episodes"])
	}
	if m["hw_latency"] >= m["static_latency"] {
		t.Errorf("probe should reduce primary latency: %v vs %v", m["hw_latency"], m["static_latency"])
	}
}

func TestE12SFI(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E12")
	m := res.Metrics
	if m["sfi_overhead"] <= 0 {
		t.Error("SFI should have measurable overhead")
	}
	if m["codesign_folded"] == 0 {
		t.Error("co-design folded nothing")
	}
	if m["codesign_cycles"] >= m["naive_cycles"] {
		t.Errorf("co-design (%v) should beat naive composition (%v)",
			m["codesign_cycles"], m["naive_cycles"])
	}
}

func TestE13InlineAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E13")
	m := res.Metrics
	if m["bin_yields"] >= m["src_yields"] {
		t.Errorf("binary-level should instrument fewer sites: %v vs %v", m["bin_yields"], m["src_yields"])
	}
	if m["bin_switches"] >= m["src_switches"] {
		t.Errorf("binary-level should switch less: %v vs %v", m["bin_switches"], m["src_switches"])
	}
	if m["bin_eff"] < m["src_eff"] {
		t.Errorf("binary-level efficiency %.3f below source-level %.3f", m["bin_eff"], m["src_eff"])
	}
	if m["bin_eff"] < m["base_eff"] {
		t.Error("instrumentation should not lose to baseline here")
	}
}

func TestE14SchedulerIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E14")
	m := res.Metrics
	if m["sidecar_mean"] >= m["agnostic_mean"] {
		t.Errorf("sidecar mean latency %.0f should beat agnostic %.0f",
			m["sidecar_mean"], m["agnostic_mean"])
	}
	if m["event-aware_mean"] > m["sidecar_mean"]*1.05 {
		t.Errorf("event-aware mean %.0f should be at or below sidecar %.0f",
			m["event-aware_mean"], m["sidecar_mean"])
	}
	if m["sidecar_eff"] < 0.5 {
		t.Errorf("sidecar efficiency %.2f too low — batch work should fill shadows", m["sidecar_eff"])
	}
}

func TestE15ProfilePortability(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E15")
	m := res.Metrics
	if m["fresh_eff"] <= m["base_eff"] {
		t.Error("fresh profile should beat baseline")
	}
	// The stale, distribution-shifted profile must retain nearly all of
	// the fresh profile's benefit (the production-PGO premise).
	if m["stale_eff"] < 0.9*m["fresh_eff"] {
		t.Errorf("stale profile efficiency %.3f lost too much vs fresh %.3f",
			m["stale_eff"], m["fresh_eff"])
	}
	if m["stale_vs_fresh"] < 0.9 {
		t.Errorf("stale-instrumented binary %.2fx slower than fresh", 1/m["stale_vs_fresh"])
	}
}

func TestE16Accelerator(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E16")
	m := res.Metrics
	for _, lat := range []string{"lat150", "lat450", "lat1500"} {
		if m[lat+"_speedup"] < 1.5 {
			t.Errorf("%s: speedup %.2fx, want >1.5x", lat, m[lat+"_speedup"])
		}
		if m[lat+"_yields"] == 0 {
			t.Errorf("%s: no yields inserted at the wait site", lat)
		}
	}
	// Longer operations leave more shadow to fill: speedup grows.
	if m["lat1500_speedup"] <= m["lat150_speedup"] {
		t.Errorf("speedup should grow with latency: %.2f vs %.2f",
			m["lat1500_speedup"], m["lat150_speedup"])
	}
}

func TestE17PrefetcherInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E17")
	m := res.Metrics
	// Hardware on: the scan needs (and gets) no software help.
	if m["scan_hwtrue_yields"] > 2 {
		t.Errorf("scan with HW prefetch got %v yields", m["scan_hwtrue_yields"])
	}
	if m["scan_hwtrue_base_eff"] < 0.9 {
		t.Errorf("scan with HW prefetch baseline eff %.2f", m["scan_hwtrue_base_eff"])
	}
	// Hardware off: the gain/cost model correctly declines the scan too —
	// only 1 access in 8 misses, so per-access yields are net-negative.
	// The mechanisms are complementary, not substitutes.
	if m["scan_hwfalse_yields"] > 2 {
		t.Errorf("scan without HW prefetch got %v yields; model should decline", m["scan_hwfalse_yields"])
	}
	if m["scan_hwfalse_pgo_eff"] < 0.95*m["scan_hwfalse_base_eff"] {
		t.Errorf("declining must not hurt: %.2f vs %.2f",
			m["scan_hwfalse_pgo_eff"], m["scan_hwfalse_base_eff"])
	}
	// The chase does not care about the hardware prefetcher.
	if d := m["chase_hwtrue_base_eff"] - m["chase_hwfalse_base_eff"]; d > 0.05 || d < -0.05 {
		t.Errorf("HW prefetch moved chase baseline by %.3f", d)
	}
	if m["chase_hwtrue_pgo_eff"] < 2*m["chase_hwtrue_base_eff"] {
		t.Error("software mechanism should dominate on the chase")
	}
}

func TestE18WindowWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E18")
	m := res.Metrics
	// Efficiency grows with window width...
	if !(m["w1_eff"] < m["w4_eff"] && m["w4_eff"] < m["w16_eff"]) {
		t.Errorf("efficiency not increasing: %.3f %.3f %.3f", m["w1_eff"], m["w4_eff"], m["w16_eff"])
	}
	// ...with strongly diminishing returns past the latency/compute ratio.
	gainEarly := m["w8_eff"] - m["w1_eff"]
	gainLate := m["w32_eff"] - m["w16_eff"]
	if gainLate > gainEarly/3 {
		t.Errorf("no plateau: early gain %.3f, late gain %.3f", gainEarly, gainLate)
	}
	if m["w16_eff"] < 2*m["w1_eff"] {
		t.Errorf("w16 (%.3f) should be far above w1 (%.3f)", m["w16_eff"], m["w1_eff"])
	}
}

func TestE19SamplingPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E19")
	m := res.Metrics
	if m["precise_yields"] == 0 {
		t.Error("precise profile should instrument the chase")
	}
	if m["skid_yields"] >= m["precise_yields"] {
		t.Errorf("skidded profile should miss sites: %v vs %v yields",
			m["skid_yields"], m["precise_yields"])
	}
	if m["precise_eff"] < 2*m["skid_eff"] {
		t.Errorf("precision should matter: precise %.3f vs skid %.3f",
			m["precise_eff"], m["skid_eff"])
	}
}

func TestE20SwitchCostSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := runExp(t, "E20")
	m := res.Metrics
	// The §4.1 conjecture: going from the reference 8 ns switch to a
	// compiler-optimized ~1.7 ns switch buys comparatively little...
	ref := m["cost24_eff"]
	opt := m["cost4_eff"]
	if opt < ref {
		t.Errorf("cheaper switches should not hurt: %.3f vs %.3f", opt, ref)
	}
	if opt > ref*1.5 {
		t.Errorf("switch cost is not the bottleneck, but optimized (%.3f) >> reference (%.3f)", opt, ref)
	}
	// ...and even 4x the reference cost retains a solid win (the knee sits
	// well above the sub-10 ns regime).
	if m["cost96_speedup"] < 3 {
		t.Errorf("4x switch cost should still win clearly: %.2fx", m["cost96_speedup"])
	}
	// Kernel-thread-class costs destroy it — the E1/F1 story.
	if m["cost1500_speedup"] > m["cost24_speedup"]*0.8 {
		t.Errorf("µs-class switches should forfeit the benefit (%.2fx vs %.2fx)",
			m["cost1500_speedup"], m["cost24_speedup"])
	}
}

// TestE21P99ImprovesWithCores pins E21's scaling claim: for the
// event-aware policy at the highest offered load (well past one core's
// saturation), p99 sojourn improves strictly as cores double 1 → 2 → 4.
func TestE21P99ImprovesWithCores(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 serves 18 sweep cells; skipped under -short")
	}
	res := runExp(t, "E21")
	rate := e21Rates[len(e21Rates)-1]
	var prev float64
	for i, n := range e21Cores {
		key := fmt.Sprintf("e21.%s.rate%g.cores%d.p99_us", service.EventAware, rate, n)
		p99, ok := res.Metrics[key]
		if !ok {
			t.Fatalf("E21 result lacks metric %q", key)
		}
		if i > 0 && p99 >= prev {
			t.Errorf("event-aware p99 at rate %g did not improve: %d cores %.3fµs, previous %.3fµs",
				rate, n, p99, prev)
		}
		prev = p99
	}
}

// TestSeedRobustness guards against seed-overfitting: the headline E7
// shape (dual-mode ≈ solo latency, near-symmetric efficiency) must hold
// across unrelated scenario seeds.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, seed := range []int64{1, 424242, 987654321} {
		mach := core.DefaultMachine()
		mach.Seed = seed
		res, err := E7DualMode(mach)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := res.Metrics
		if m["dual_latency"] > 1.5*m["solo_latency"] {
			t.Errorf("seed %d: dual latency %.0f vs solo %.0f", seed, m["dual_latency"], m["solo_latency"])
		}
		if m["sym_latency"] < 2*m["solo_latency"] {
			t.Errorf("seed %d: symmetric latency not inflated", seed)
		}
		if m["dual_eff"] < 0.5 {
			t.Errorf("seed %d: dual efficiency %.2f", seed, m["dual_eff"])
		}
	}
}

func TestResultMarkdown(t *testing.T) {
	res, err := E1SwitchCost(core.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	md := res.Markdown()
	if !strings.Contains(md, "### E1") || !strings.Contains(md, "| --- |") || !strings.Contains(md, "> paper:") {
		t.Errorf("markdown rendering wrong:\n%s", md)
	}
}
