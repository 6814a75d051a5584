package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is what one workload run is asked to do.
type options struct {
	seed    int64
	scale   string
	seconds float64 // timed reps continue until this much time has passed...
	reps    int     // ...unless a fixed rep count is given (> 0)
	trace   bool
	outDir  string
	// exe is this program, for the workloads that set up more than once;
	// empty (the smoke test) means set up once.
	exe string
	// start is when set-up began: process start when a process runs one
	// workload, the call otherwise.
	start time.Time
}

// value is one reported number; Dist is present for timings.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"dist,omitempty"`
}

// result is everything one workload run produced.
type result struct {
	Workload string     `json:"workload"`
	Why      string     `json:"why"`
	Loop     string     `json:"loop"`
	Seed     int64      `json:"seed"`
	Scale    string     `json:"scale"`
	Reps     int        `json:"reps"`
	Host     hostRecord `json:"host"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`

	// RepWallS is every timed rep's wall time as the clock read it
	// (uncorrected), in order, so drift within a run can be told from
	// scatter.
	RepWallS []float64 `json:"rep_wall_s"`
	// RefS is the reference kernel's reading before each rep and after
	// the last: rep i is corrected by the mean of RefS[i] and RefS[i+1].
	RefS []float64 `json:"ref_s"`

	EndToEnd map[string]value `json:"end_to_end"`
	// The fields below are filled by the traced pass only.
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// LayerSelfMS is each layer's self time in the traced rep; the rows
	// sum to TracedWallMS within ResidualPct.
	LayerSelfMS  map[string]float64 `json:"layer_self_ms,omitempty"`
	TracedWallMS float64            `json:"traced_wall_ms,omitempty"`
	ResidualPct  float64            `json:"residual_pct,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// residualLimitPct is the stated residual: per-layer self times must
// sum to the traced rep's wall time within this share.
const residualLimitPct = 1.0

// setUp does everything that precedes the first timed rep: scratch
// directory, generated inputs, and one untimed warm-up rep, which also
// yields the reference digest. It returns the seconds from opt.start,
// speed-corrected, without the reference kernel's own time.
func setUp(w *workload, opt options) (*env, *repOut, float64, error) {
	before := refKernel()
	sz, ok := scales[opt.scale]
	if !ok {
		return nil, nil, 0, fmt.Errorf("unknown scale %q (want full or tiny)", opt.scale)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	e := &env{seed: opt.seed, sz: sz, chk: &checks{}, dir: opt.outDir}
	ref, err := w.rep(e)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: warm-up rep: %w", w.name, err)
	}
	raw := time.Since(opt.start).Seconds() - before
	return e, ref, corrected(raw, before, refKernel()), nil
}

// coldSetup sets the workload up once more in a fresh process and
// returns that process's set-up time. Only a new process is cold: a
// second set-up in this one would find the runtime's heap grown and
// whatever the library initialises once already initialised.
func coldSetup(w *workload, opt options) (float64, error) {
	out, err := exec.Command(opt.exe, "-setup-only",
		"-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-scale", opt.scale,
		"-out", opt.outDir).Output()
	if err != nil {
		return 0, fmt.Errorf("%s: set-up in a child process: %w", w.name, err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runWorkload sets the workload up, runs the timed reps untraced, and —
// with opt.trace — one more rep under the span recorder.
func runWorkload(w *workload, opt options) (*result, error) {
	e, ref, setup, err := setUp(w, opt)
	if err != nil {
		return nil, err
	}
	chk := e.chk
	setups := []float64{setup}
	for i := 1; i < w.setups && opt.exe != ""; i++ {
		s, err := coldSetup(w, opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	res := &result{
		Workload: w.name, Why: w.why, Loop: w.loop,
		Seed: opt.seed, Scale: opt.scale, Host: readHost(),
		Digest: ref.digest, EndToEnd: map[string]value{},
	}

	var walls, users, allocs []float64
	var ms runtime.MemStats
	began := time.Now()
	for i := 0; ; i++ {
		if opt.reps > 0 && i >= opt.reps {
			break
		}
		if opt.reps <= 0 && i >= w.minReps && time.Since(began).Seconds() >= opt.seconds {
			break
		}
		// Every rep starts from a collected heap with its free memory
		// handed back to the OS, so one rep's garbage is neither the next
		// one's GC work nor, reused or not, a coin-flip in its peak RSS.
		debug.FreeOSMemory()
		res.RefS = append(res.RefS, refKernel())
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		u0, _ := cpuTimes()
		t := time.Now()
		out, err := w.rep(e)
		wall := time.Since(t).Seconds()
		u1, _ := cpuTimes()
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.name, i+1, err)
		}
		walls = append(walls, wall)
		users = append(users, u1-u0)
		allocs = append(allocs, float64(ms.TotalAlloc-a0)/1e6)
		chk.ok(out.digest == ref.digest, "rep %d digest %.12s differs from the warm-up rep's %.12s", i+1, out.digest, ref.digest)
	}
	res.RefS = append(res.RefS, refKernel())
	res.Reps, res.RepWallS = len(walls), walls

	if w.procsCheck {
		debug.FreeOSMemory()
		old := runtime.GOMAXPROCS(1)
		out, err := w.rep(e)
		runtime.GOMAXPROCS(old)
		if err != nil {
			return nil, fmt.Errorf("%s: GOMAXPROCS=1 rep: %w", w.name, err)
		}
		chk.ok(out.digest == ref.digest, "GOMAXPROCS=1 digest %.12s differs from GOMAXPROCS=%d's %.12s", out.digest, old, ref.digest)
	}

	// Timings are speed-corrected rep by rep, then reported as the median
	// over reps, with n, min, max and IQR beside it.
	cwalls, cusers := make([]float64, len(walls)), make([]float64, len(walls))
	for i := range walls {
		cwalls[i] = corrected(walls[i], res.RefS[i], res.RefS[i+1])
		cusers[i] = corrected(users[i], res.RefS[i], res.RefS[i+1])
	}
	wall, user, alloc, set := summarize(cwalls), summarize(cusers), summarize(allocs), summarize(setups)
	res.EndToEnd["setup_s"] = value{Value: set.Median, Unit: "s", Dist: &set}
	res.EndToEnd["wall_s"] = value{Value: wall.Median, Unit: "s", Dist: &wall}
	res.EndToEnd["cpu_user_s"] = value{Value: user.Median, Unit: "s", Dist: &user}
	res.EndToEnd["host_alloc_mb"] = value{Value: alloc.Median, Unit: "MB", Dist: &alloc}
	res.EndToEnd["peak_rss_mb"] = value{Value: peakRSSMB(), Unit: "MB"}
	if ref.retired > 0 {
		res.EndToEnd["sim_minstr_per_host_s"] = value{Value: float64(ref.retired) / wall.Median / 1e6, Unit: "Minstr/s"}
	}
	if ref.requests > 0 {
		res.EndToEnd["sim_kreq_per_host_s"] = value{Value: float64(ref.requests) / wall.Median / 1e3, Unit: "kreq/s"}
	}
	for _, d := range endToEnd {
		if v, ok := ref.vals[d.Name]; ok {
			res.EndToEnd[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}

	if opt.trace {
		if err := tracedPass(w, e, ref, summarize(walls).Median, res); err != nil {
			return nil, err
		}
	}

	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.failures
	res.EndToEnd["fail_share"] = value{Value: float64(chk.failed) / float64(chk.attempted), Unit: "ratio"}
	return res, nil
}

// tracedPass repeats one rep with the span recorder on, writes the
// spans out, and folds them into the per-layer metrics and the
// self-time table.
func tracedPass(w *workload, e *env, ref *repOut, untracedWall float64, res *result) error {
	rec := newRecorder()
	rec.rep = 1
	e.rec = rec
	debug.FreeOSMemory()
	t := time.Now()
	root := rec.begin("bench.rep")
	traced, err := w.rep(e)
	rec.end(root)
	tracedWall := time.Since(t)
	e.rec = nil
	if err != nil {
		return fmt.Errorf("%s: traced rep: %w", w.name, err)
	}
	e.chk.ok(traced.digest == ref.digest, "traced rep digest %.12s differs from the warm-up rep's %.12s", traced.digest, ref.digest)
	spans := rec.spans

	m := map[string]float64{}
	for name, v := range traced.vals {
		if !strings.HasPrefix(name, "_") {
			m[name] = v
		}
	}
	for _, sm := range spanMetrics {
		if ns := spanNS(spans, sm.spans...); ns > 0 {
			m[sm.metric] = ns / sm.div
		}
	}
	if err := w.layers(e, spans, traced, m); err != nil {
		return fmt.Errorf("%s: per-layer timings: %w", w.name, err)
	}
	m["bench.trace_overhead_pct"] = (tracedWall.Seconds() - untracedWall) / untracedWall * 100

	res.PerLayer = map[string]value{}
	for _, d := range perLayer() {
		if v, ok := m[d.Name]; ok {
			res.PerLayer[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}

	res.LayerSelfMS = map[string]float64{}
	var sum float64
	for layer, ns := range layerSelf(spans) {
		res.LayerSelfMS[layer] = float64(ns) / 1e6
		sum += float64(ns) / 1e6
	}
	res.TracedWallMS = float64(tracedWall) / 1e6
	res.ResidualPct = (res.TracedWallMS - sum) / res.TracedWallMS * 100
	e.chk.ok(res.ResidualPct >= -residualLimitPct && res.ResidualPct <= residualLimitPct,
		"per-layer self times sum to %.3f ms, traced rep took %.3f ms: residual %.2f%% beyond %.1f%%",
		sum, res.TracedWallMS, res.ResidualPct, residualLimitPct)

	res.TraceFile = filepath.Join(e.dir, "trace-"+w.name+".json")
	return writeChromeTrace(res.TraceFile, spans)
}

// ---- rendering ----

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 1e6 || a < 1e-3:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func fmtDist(d *summary) string {
	if d == nil {
		return ""
	}
	return fmt.Sprintf("  (n=%d median=%s min=%s max=%s iqr=%s)", d.N, fmtValue(d.Median), fmtValue(d.Min), fmtValue(d.Max), fmtValue(d.IQR))
}

// report renders one workload's result for a terminal.
func (r *result) report() string {
	var b strings.Builder
	h := r.Host
	fmt.Fprintf(&b, "== %s  [%s]\n   %s\n", r.Workload, r.Loop, r.Why)
	fmt.Fprintf(&b, "   host: nproc=%d GOMAXPROCS=%d %s %s cpu=%q thp=%q governor=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.CPUModel, h.THP, h.Governor, h.GitCommit)
	fmt.Fprintf(&b, "   seed=%d scale=%s reps=%d (+1 warm-up) digest=%.16s\n", r.Seed, r.Scale, r.Reps, r.Digest)
	fmt.Fprintf(&b, "   end to end (untraced pass; host times speed-corrected, medians over reps; uncorrected wall median %s s, reference kernel median %.2f ms against %.2f nominal):\n",
		fmtValue(summarize(r.RepWallS).Median), summarize(r.RefS).Median*1e3, refNominalS*1e3)
	for _, d := range endToEnd {
		v, ok := r.EndToEnd[d.Name]
		if !ok {
			fmt.Fprintf(&b, "     %-34s %14s\n", d.Name, "—")
			continue
		}
		fmt.Fprintf(&b, "     %-34s %14s %-9s%s\n", d.Name, fmtValue(v.Value), v.Unit, fmtDist(v.Dist))
	}
	if r.PerLayer != nil {
		fmt.Fprintf(&b, "   per layer (traced pass):\n")
		for _, d := range perLayer() {
			if v, ok := r.PerLayer[d.Name]; ok {
				fmt.Fprintf(&b, "     %-34s %14s %s\n", d.Name, fmtValue(v.Value), v.Unit)
			}
		}
		fmt.Fprintf(&b, "   layer self time in the traced rep (%.3f ms; residual %.3f%%, limit %.1f%%; spans in %s):\n",
			r.TracedWallMS, r.ResidualPct, residualLimitPct, r.TraceFile)
		layers := make([]string, 0, len(r.LayerSelfMS))
		for l := range r.LayerSelfMS {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return r.LayerSelfMS[layers[i]] > r.LayerSelfMS[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(&b, "     %-34s %14.3f ms  %5.1f%%\n", l, r.LayerSelfMS[l], r.LayerSelfMS[l]/r.TracedWallMS*100)
		}
	}
	fmt.Fprintf(&b, "   checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "     FAIL %s\n", f)
	}
	return b.String()
}
