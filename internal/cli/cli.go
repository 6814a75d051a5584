// Package cli holds the flag plumbing shared by the shprof / shinstr /
// shrun / shbench tools: workload selection by name and machine options.
// The tools rebuild scenarios deterministically from (workload, instances,
// seed), so a profile collected by shprof applies to the binary shinstr
// rewrites and shrun executes.
package cli

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/workloads"
)

// specFactory builds a workload spec with the requested instance count.
type specFactory func(instances int) workloads.Spec

var specs = map[string]specFactory{
	"chase": func(n int) workloads.Spec {
		return workloads.PointerChase{Nodes: 8192, Hops: 3000, Instances: n}
	},
	"hashjoin": func(n int) workloads.Spec {
		return workloads.HashJoin{BuildRows: 8192, Buckets: 4096, Probes: 400, MatchFraction: 0.7, Instances: n}
	},
	"bst": func(n int) workloads.Spec {
		return workloads.BST{Keys: 8192, Lookups: 300, Instances: n}
	},
	"btree": func(n int) workloads.Spec {
		return workloads.BTree{Keys: 8192, Lookups: 300, Instances: n}
	},
	"skiplist": func(n int) workloads.Spec {
		return workloads.SkipList{Keys: 8192, Lookups: 300, Instances: n}
	},
	"binsearch": func(n int) workloads.Spec {
		return workloads.BinarySearch{N: 65536, Lookups: 300, Instances: n}
	},
	"scatter": func(n int) workloads.Spec {
		return workloads.Scatter{Slots: 8192, Updates: 3000, Instances: n}
	},
	"scan": func(n int) workloads.Spec {
		return workloads.ArrayScan{N: 65536, Instances: n}
	},
	"multichase": func(n int) workloads.Spec {
		return workloads.MultiChase{Nodes: 4096, Hops: 1000, Instances: n}
	},
	"mixedchase": func(n int) workloads.Spec {
		return workloads.MixedChase{ColdNodes: 8192, HotNodes: 16, Hops: 1500, Instances: n}
	},
	"accelstream": func(n int) workloads.Spec {
		return workloads.AccelStream{Blocks: 2000, Pad: 8, Instances: n}
	},
	"compute": func(n int) workloads.Spec {
		return workloads.Compute{Iters: 200000, Instances: n}
	},
}

// Names lists the selectable workloads.
func Names() []string {
	var names []string
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SpecByName resolves a workload name.
func SpecByName(name string, instances int) (workloads.Spec, error) {
	f, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names())
	}
	if instances < 1 {
		return nil, fmt.Errorf("instances must be ≥ 1")
	}
	return f(instances), nil
}

// WorkloadFlags is the common workload/machine flag set.
type WorkloadFlags struct {
	Workload  string
	Instances int
	Seed      int64
}

// Register installs the common flags into fs.
func (w *WorkloadFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Workload, "workload", "chase", fmt.Sprintf("workload name %v", Names()))
	fs.IntVar(&w.Instances, "instances", 8, "independent workload instances (coroutines)")
	fs.Int64Var(&w.Seed, "seed", 20230626, "deterministic scenario seed")
}

// CanonicalFlags is the cross-tool flag vocabulary: every tool that
// offers one of these behaviours must spell it exactly this way, so a
// flag learned on shbench works unchanged on shrun.
var CanonicalFlags = []struct{ Name, Meaning string }{
	{"seed", "deterministic scenario seed"},
	{"seeds", "sweep the scenario across N seeds"},
	{"parallel", "worker goroutines for sweeps (0 = GOMAXPROCS)"},
	{"metrics", "print the cycle-domain observability counters"},
	{"cache", "serve and store results in the content-addressed cache"},
	{"cache-dir", "cache directory (implies -cache; default ~/.cache/softhide)"},
	{"trace-out", "write retained trace events as Chrome trace-event JSON"},
	{"cores", "simulated cores sharing the banked LLC (1 = classic single-core engine)"},
	{"llc-banks", "shared-LLC bank count override (power of two; needs -cores > 1)"},
	{"llc-size", "shared-LLC capacity override in bytes (needs -cores > 1)"},
	{"quantum", "cycle-quantum length of the many-core kernel (0 = default)"},
	{"serve", "run the open-loop service harness (arrivals on their own clock)"},
	{"arrivals", "arrival process: poisson | uniform | bursty (needs -serve)"},
	{"rate", "offered load sweep in requests/µs, comma-separated (needs -serve)"},
	{"requests", "requests offered per sweep cell (needs -serve)"},
	{"policy", "serving policies, comma-separated: agnostic,sidecar,event-aware,os-thread,smt"},
}

// TopologyFlags is the common many-core flag set: core count plus
// shared-LLC and quantum overrides.
type TopologyFlags struct {
	Cores    int
	LLCBanks int
	LLCSize  uint64
	Quantum  uint64
}

// Register installs the topology flags into fs.
func (tf *TopologyFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&tf.Cores, "cores", 1, "simulated cores sharing the banked LLC (1 = classic single-core engine)")
	fs.IntVar(&tf.LLCBanks, "llc-banks", 0, "shared-LLC bank count override (power of two; needs -cores > 1)")
	fs.Uint64Var(&tf.LLCSize, "llc-size", 0, "shared-LLC capacity override in bytes (needs -cores > 1)")
	fs.Uint64Var(&tf.Quantum, "quantum", 0, "cycle-quantum length of the many-core kernel (0 = default)")
}

// Check validates flag consistency upfront, so tools that only build a
// topology when -cores > 1 still reject bad combinations before any
// simulation starts.
func (tf *TopologyFlags) Check() error {
	if tf.Cores < 1 {
		return fmt.Errorf("-cores must be ≥ 1 (got %d)", tf.Cores)
	}
	if tf.Cores == 1 && (tf.LLCBanks != 0 || tf.LLCSize != 0 || tf.Quantum != 0) {
		return fmt.Errorf("-llc-banks/-llc-size/-quantum tune the many-core kernel, which needs -cores > 1")
	}
	return nil
}

// Topology builds the machine topology described by the flags over the
// given per-core template, validating everything upfront so a bad flag
// combination fails before any simulation starts.
func (tf *TopologyFlags) Topology(mach core.Machine) (machine.Topology, error) {
	var topo machine.Topology
	if tf.Cores < 1 {
		return topo, fmt.Errorf("-cores must be ≥ 1 (got %d)", tf.Cores)
	}
	if tf.Cores == 1 && (tf.LLCBanks != 0 || tf.LLCSize != 0) {
		return topo, fmt.Errorf("-llc-banks/-llc-size configure the shared LLC, which needs -cores > 1")
	}
	topo = machine.DefaultTopology(tf.Cores)
	topo.Machine = mach
	if tf.LLCBanks != 0 {
		topo.LLC.Banks = tf.LLCBanks
	}
	if tf.LLCSize != 0 {
		topo.LLC.Size = tf.LLCSize
	}
	if tf.Quantum != 0 {
		topo.Quantum = tf.Quantum
	}
	if err := topo.Validate(); err != nil {
		return topo, err
	}
	return topo, nil
}

// ServiceFlags is the open-loop service-harness flag set: tools that
// can drive a Serve sweep spell these flags identically. The workload
// flag picks the request program (sized to -workers instances); the
// background batch tier defaults to the service package's compute
// filler.
type ServiceFlags struct {
	Serve    bool
	Arrivals string
	Rate     string
	Requests int
	Policy   string
	Workers  int
	Queue    int
	Shed     uint64
	Batch    int
	Burst    float64
}

// serviceDefaults mirrors Register's defaults so Check can tell an
// untouched flag set from a misused one.
var serviceDefaults = ServiceFlags{
	Arrivals: "poisson",
	Policy:   "agnostic,sidecar,event-aware,os-thread",
	Requests: 2000,
	Workers:  4,
	Queue:    64,
	Batch:    2,
	Burst:    8,
}

// Register installs the service flags into fs.
func (sf *ServiceFlags) Register(fs *flag.FlagSet) {
	d := serviceDefaults
	fs.BoolVar(&sf.Serve, "serve", false, "run the open-loop service harness (arrivals on their own clock)")
	fs.StringVar(&sf.Arrivals, "arrivals", d.Arrivals, "arrival process: poisson | uniform | bursty")
	fs.StringVar(&sf.Rate, "rate", "", "offered load sweep in requests/µs, comma-separated (default 0.05,0.1,0.2)")
	fs.IntVar(&sf.Requests, "requests", d.Requests, "requests offered per sweep cell")
	fs.StringVar(&sf.Policy, "policy", d.Policy, "serving policies, comma-separated")
	fs.IntVar(&sf.Workers, "workers", d.Workers, "concurrent in-flight request slots")
	fs.IntVar(&sf.Queue, "queue", d.Queue, "admission-queue capacity (arrivals beyond it drop)")
	fs.Uint64Var(&sf.Shed, "shed", d.Shed, "shed requests older than this many cycles at dispatch (0 = never)")
	fs.IntVar(&sf.Batch, "batch", d.Batch, "background batch tasks soaking up miss shadows and idle cycles")
	fs.Float64Var(&sf.Burst, "burst", d.Burst, "mean burst size for -arrivals bursty")
}

// Check validates the service flags upfront: with -serve, every value
// must parse; without it, touching a service knob is an error rather
// than a silent no-op.
func (sf *ServiceFlags) Check() error {
	if !sf.Serve {
		// Both the registered defaults and the zero value (programmatic
		// callers that never touch the service surface) are "untouched".
		if *sf != serviceDefaults && *sf != (ServiceFlags{}) {
			return fmt.Errorf("-arrivals/-rate/-requests/-policy/-workers/-queue/-shed/-batch/-burst tune the service harness, which needs -serve")
		}
		return nil
	}
	if _, err := service.ParseKind(sf.Arrivals); err != nil {
		return err
	}
	if _, err := service.ParsePolicies(sf.Policy); err != nil {
		return err
	}
	if _, err := sf.rates(); err != nil {
		return err
	}
	if sf.Requests < 1 {
		return fmt.Errorf("-requests must be ≥ 1 (got %d)", sf.Requests)
	}
	return nil
}

// rates parses the -rate list.
func (sf *ServiceFlags) rates() ([]float64, error) {
	if sf.Rate == "" {
		return nil, nil // service.Config defaults apply
	}
	var out []float64
	for _, s := range strings.Split(sf.Rate, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("-rate: %q is not a number", s)
		}
		out = append(out, r)
	}
	return out, nil
}

// ServiceConfig assembles the serve-sweep configuration described by
// the flags around the given request workload (typically built from the
// -workload flag with Instances = sf.Workers). The background batch
// tier is left to the service package's default compute filler.
func (sf *ServiceFlags) ServiceConfig(request workloads.Spec) (service.Config, error) {
	if err := sf.Check(); err != nil {
		return service.Config{}, err
	}
	kind, err := service.ParseKind(sf.Arrivals)
	if err != nil {
		return service.Config{}, err
	}
	pols, err := service.ParsePolicies(sf.Policy)
	if err != nil {
		return service.Config{}, err
	}
	rates, err := sf.rates()
	if err != nil {
		return service.Config{}, err
	}
	if len(rates) == 0 {
		rates = service.DefaultConfig().Rates
	}
	return service.Config{
		Workload:  service.Workload{Request: request},
		Arrivals:  service.ArrivalSpec{Kind: kind, Rate: rates[0], Burst: sf.Burst},
		Rates:     rates,
		Requests:  sf.Requests,
		Workers:   sf.Workers,
		Queue:     sf.Queue,
		ShedAfter: sf.Shed,
		Batch:     sf.Batch,
		Policies:  pols,
	}, nil
}

// InstallUsage wraps fs.Usage so that help output — including the
// message printed after an unknown-flag error — ends with the canonical
// cross-tool flag set.
func InstallUsage(fs *flag.FlagSet) {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage of %s:\n", fs.Name())
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\ncanonical flags shared across tools (same name, same meaning):\n")
		for _, f := range CanonicalFlags {
			fmt.Fprintf(fs.Output(), "  -%-10s %s\n", f.Name, f.Meaning)
		}
	}
}

// NoArgs rejects positional arguments left over after fs.Parse: every
// input of the flag-only tools is a flag, so a stray word is a
// forgotten flag name (`shbench E7` for `shbench -exp E7`) that would
// otherwise run the default job. It fails the way fs.Parse does — a
// one-line error and exit status 2 under flag.ExitOnError, a returned
// error otherwise.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() == 0 {
		return nil
	}
	err := fmt.Errorf("unexpected argument %q: %s takes flags only (see -h)", fs.Arg(0), fs.Name())
	if fs.ErrorHandling() == flag.ExitOnError {
		fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
		os.Exit(2)
	}
	return err
}

// Harness builds the scenario described by the flags.
func (w *WorkloadFlags) Harness() (*core.Harness, string, error) {
	spec, err := SpecByName(w.Workload, w.Instances)
	if err != nil {
		return nil, "", err
	}
	mach := core.DefaultMachine()
	mach.Seed = w.Seed
	h, err := core.NewHarness(mach, spec)
	if err != nil {
		return nil, "", err
	}
	return h, spec.Name(), nil
}
