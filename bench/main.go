// Command bench is the repository's benchmark: six workloads, each a
// fixed amount of work driven through the library's public functions,
// reported as named end-to-end metrics (untraced pass) and per-layer
// metrics (traced pass). README.md in this directory is the dictionary.
//
//	go run ./bench                      every workload, one process each
//	go run ./bench -trace 1             ...plus the traced pass and trace files
//	go run ./bench -selfcheck           the full set twice, compared against the bounds
//	go run ./bench -workload sweep -seed 7 -seconds 5 -trace 0
//
// The last form is what the benchmark driver runs; its last line of
// output is one JSON object (correct, attempted, failed, metrics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets: package
// initialisation, before main and flag parsing.
var processStart = time.Now()

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "workload-generation seed (Machine.Seed, arrival seed)")
		seconds   = flag.Float64("seconds", 5, "keep running timed reps until this many seconds have passed (at least the workload's minimum rep count)")
		reps      = flag.Int("reps", 0, "run exactly this many timed reps instead of timing out on -seconds")
		trace     = flag.Int("trace", 0, "1 adds the traced pass: per-layer metrics and out/trace-<workload>.json")
		scale     = flag.String("scale", "full", "full, or tiny (smoke-test sizes; numbers meaningless)")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for result, trace and scratch files")
		setupOnly = flag.Bool("setup-only", false, "set -workload up, print the set-up time in seconds and exit (what a run starts to repeat its set-up cold)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-reps n] [-trace 0|1] [-scale full|tiny] [-selfcheck] [-out dir]")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	opt := options{seed: *seed, scale: *scale, seconds: *seconds, reps: *reps, trace: *trace == 1, outDir: *outDir, exe: exe, start: processStart}

	switch {
	case *setupOnly:
		err = runSetupOnly(*name, opt)
	case *name != "":
		err = runOne(*name, opt)
	case *selfcheck:
		err = runSelfcheck(opt)
	default:
		_, err = runAll(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errChecksFailed marks a run whose numbers were produced but whose
// correctness checks did not all pass.
var errChecksFailed = fmt.Errorf("correctness checks failed")

func findWorkload(name string) (*workload, error) {
	if w := lookupWorkload(name); w != nil {
		return w, nil
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// runSetupOnly is the child side of coldSetup.
func runSetupOnly(name string, opt options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	_, _, setup, err := setUp(w, opt)
	if err != nil {
		return err
	}
	fmt.Println(setup)
	return nil
}

// runOne runs one workload in this process, prints its report, writes
// its result file and ends with the driver's one-line JSON.
func runOne(name string, opt options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	fmt.Print(res.report())
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(opt.outDir, name), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(driverLine(res, opt.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return errChecksFailed
	}
	return nil
}

func resultPath(dir, name string) string { return filepath.Join(dir, "result-"+name+".json") }

// driverOut is the one JSON object the benchmark driver reads.
type driverOut struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// driverLine picks the metrics BENCHMARK.json promises: its end_to_end
// list untraced, its per_layer list traced. A per-layer metric that is
// not defined on the workload reads 0 there.
func driverLine(res *result, traced bool) driverOut {
	out := driverOut{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		if d.Gate != traced {
			v := res.EndToEnd[d.Name]
			out.Metrics[d.Name] = value{Value: v.Value, Unit: d.Unit}
		}
	}
	if traced {
		for _, d := range perLayer() {
			out.Metrics[d.Name] = value{Value: res.PerLayer[d.Name].Value, Unit: d.Unit}
		}
	}
	return out
}

// runAll runs every workload in a child process of its own (so peak RSS
// and set-up time are per workload), then prints the combined table.
func runAll(opt options) ([]*result, error) {
	var results []*result
	failed := false
	for _, w := range allWorkloads {
		cmd := exec.Command(opt.exe,
			"-workload", w.name,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(opt.reps),
			"-trace", map[bool]string{false: "0", true: "1"}[opt.trace],
			"-scale", opt.scale,
			"-out", opt.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			// A child that produced numbers but failed checks still wrote
			// its result; anything else is fatal.
			failed = true
		}
		data, err := os.ReadFile(resultPath(opt.outDir, w.name))
		if err != nil {
			return nil, fmt.Errorf("%s produced no result: %w", w.name, err)
		}
		res := &result{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", resultPath(opt.outDir, w.name), err)
		}
		results = append(results, res)
	}
	fmt.Print(table(results))
	data, err := json.MarshalIndent(map[string]any{"host": results[0].Host, "results": results}, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, "bench.json"), data, 0o644); err != nil {
		return nil, err
	}
	for _, r := range results {
		failed = failed || r.Failed > 0
	}
	if failed {
		return results, errChecksFailed
	}
	return results, nil
}

// table lays the end-to-end metrics out workload by workload.
func table(results []*result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-24s %-9s", "end-to-end metric", "unit")
	for _, r := range results {
		fmt.Fprintf(&b, " %15s", r.Workload)
	}
	b.WriteByte('\n')
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "%-24s %-9s", d.Name, d.Unit)
		for _, r := range results {
			if v, ok := r.EndToEnd[d.Name]; ok {
				fmt.Fprintf(&b, " %15s", fmtValue(v.Value))
			} else {
				fmt.Fprintf(&b, " %15s", "—")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runSelfcheck runs the full set twice and compares every end-to-end
// metric, workload by workload: host-time metrics against their bound,
// simulated ones for exact equality.
func runSelfcheck(opt options) error {
	first, err1 := runAll(opt)
	if first == nil {
		return err1
	}
	second, err2 := runAll(opt)
	if second == nil {
		return err2
	}
	fmt.Printf("\nselfcheck: two runs of the same code\n%-16s %-24s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	bad := 0
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			va, oka := a.EndToEnd[d.Name]
			vb, okb := b.EndToEnd[d.Name]
			if !oka && !okb {
				continue
			}
			diff := relDiff(va.Value, vb.Value)
			verdict, bound := "", "exact"
			if !d.Exact {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			if oka != okb || (d.Exact && va.Value != vb.Value) || (!d.Exact && diff > d.Bound) {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-24s %14s %14s %8.2f%% %9s%s\n", a.Workload, d.Name, fmtValue(va.Value), fmtValue(vb.Value), diff*100, bound, verdict)
		}
		if a.Digest != b.Digest {
			fmt.Printf("%-16s digest %.16s vs %.16s  DISAGREE\n", a.Workload, a.Digest, b.Digest)
			bad++
		}
	}
	if err1 != nil {
		return err1
	}
	if err2 != nil {
		return err2
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric pair(s) disagree beyond their bound", bad)
	}
	fmt.Println("selfcheck: every pair agrees within its bound")
	return nil
}
