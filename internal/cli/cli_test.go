package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/service"
)

func TestSpecByName(t *testing.T) {
	for _, name := range Names() {
		spec, err := SpecByName(name, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Name() == "" {
			t.Errorf("%s: empty spec name", name)
		}
	}
	if _, err := SpecByName("bogus", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := SpecByName("chase", 0); err == nil {
		t.Error("zero instances accepted")
	}
}

func TestWorkloadFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var wf WorkloadFlags
	wf.Register(fs)
	if err := fs.Parse([]string{"-workload", "bst", "-instances", "3", "-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	h, part, err := wf.Harness()
	if err != nil {
		t.Fatal(err)
	}
	if part != "bst" {
		t.Errorf("part = %s", part)
	}
	if len(h.Sc.Part("bst").Instances) != 3 {
		t.Error("instance count not honored")
	}
	if h.Mach.Seed != 42 {
		t.Error("seed not honored")
	}
}

func TestHarnessRejectsBadWorkload(t *testing.T) {
	wf := WorkloadFlags{Workload: "nope", Instances: 1}
	if _, _, err := wf.Harness(); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestEveryNamedWorkloadBuildsAndValidates(t *testing.T) {
	// Each registry entry must compose successfully at small scale.
	for _, name := range Names() {
		wf := WorkloadFlags{Workload: name, Instances: 1, Seed: 7}
		h, part, err := wf.Harness()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if h.Sc.Part(part) == nil {
			t.Errorf("%s: part missing", name)
		}
	}
}

// TestInstallUsageListsCanonicalFlags: the usage text every tool prints
// — including after an unknown-flag error — must end with the shared
// cross-tool flag vocabulary.
func TestInstallUsageListsCanonicalFlags(t *testing.T) {
	fs := flag.NewFlagSet("shtest", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	var wf WorkloadFlags
	wf.Register(fs)
	InstallUsage(fs)

	// Unknown flags route through the usage text.
	if err := fs.Parse([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag must error")
	}
	out := buf.String()
	for _, f := range CanonicalFlags {
		if !strings.Contains(out, "-"+f.Name) {
			t.Errorf("usage missing canonical flag -%s:\n%s", f.Name, out)
		}
	}
	if !strings.Contains(out, "canonical flags shared across tools") {
		t.Errorf("usage missing canonical-set banner:\n%s", out)
	}
}

func TestTopologyFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var tf TopologyFlags
	tf.Register(fs)
	if err := fs.Parse([]string{"-cores", "4", "-llc-banks", "16", "-llc-size", "4194304", "-quantum", "2048"}); err != nil {
		t.Fatal(err)
	}
	if err := tf.Check(); err != nil {
		t.Fatal(err)
	}
	topo, err := tf.Topology(core.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Cores != 4 || topo.LLC.Banks != 16 || topo.LLC.Size != 4194304 || topo.Quantum != 2048 {
		t.Errorf("overrides lost: %+v", topo)
	}

	for _, bad := range []TopologyFlags{
		{Cores: 0},
		{Cores: 1, LLCBanks: 8},
		{Cores: 1, Quantum: 512},
	} {
		bad := bad
		if err := bad.Check(); err == nil {
			t.Errorf("Check accepted %+v", bad)
		}
	}
	for _, bad := range []TopologyFlags{
		{Cores: 4, LLCBanks: 3},
		{Cores: 1, Quantum: 512},
		{Cores: 1, LLCBanks: 8},
	} {
		if _, err := bad.Topology(core.DefaultMachine()); err == nil {
			t.Errorf("Topology accepted %+v", bad)
		}
	}
}

// Every topology flag is part of the canonical cross-tool vocabulary.
func TestTopologyFlagsAreCanonical(t *testing.T) {
	canon := map[string]bool{}
	for _, f := range CanonicalFlags {
		canon[f.Name] = true
	}
	for _, name := range []string{"cores", "llc-banks", "llc-size", "quantum"} {
		if !canon[name] {
			t.Errorf("flag -%s missing from CanonicalFlags", name)
		}
	}
}

func TestServiceFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var sf ServiceFlags
	sf.Register(fs)
	args := []string{"-serve", "-arrivals", "bursty", "-rate", "0.1, 0.25", "-requests", "500",
		"-policy", "agnostic,smt", "-workers", "2", "-queue", "16", "-shed", "9000", "-batch", "1", "-burst", "4"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := sf.Check(); err != nil {
		t.Fatal(err)
	}
	req, err := SpecByName("bst", sf.Workers)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sf.ServiceConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrivals.Kind != service.Bursty || cfg.Arrivals.Burst != 4 {
		t.Errorf("arrival spec lost: %+v", cfg.Arrivals)
	}
	if len(cfg.Rates) != 2 || cfg.Rates[0] != 0.1 || cfg.Rates[1] != 0.25 {
		t.Errorf("rates lost: %v", cfg.Rates)
	}
	if cfg.Requests != 500 || cfg.Workers != 2 || cfg.Queue != 16 || cfg.ShedAfter != 9000 || cfg.Batch != 1 {
		t.Errorf("admission knobs lost: %+v", cfg)
	}
	if len(cfg.Policies) != 2 || cfg.Policies[0] != service.Agnostic || cfg.Policies[1] != service.SMT {
		t.Errorf("policies lost: %v", cfg.Policies)
	}
	if _, err := cfg.Normalized(); err != nil {
		t.Errorf("flag-built config does not normalize: %v", err)
	}

	// What service.Config.Validate refuses, the flags refuse in its
	// words: here an arrival clock that would leave the cycle range.
	sf.Rate = "1e-300"
	hostile := service.Config{Arrivals: service.ArrivalSpec{Kind: service.Bursty, Rate: 1e-300, Burst: 4},
		Requests: 500, Workers: 2, Queue: 16, Batch: 1}
	_, want := hostile.Normalized()
	if _, err := sf.ServiceConfig(req); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("-rate 1e-300: ServiceConfig returned %v, Validate says %v", err, want)
	}
}

// The serve flags default to the service package's own values: -serve
// alone (and with -arrivals bursty, the one kind that reads -burst)
// describes DefaultConfig's sweep, and every pool size is what
// Normalized gives a zero Config.
func TestServiceFlagDefaultsAreServices(t *testing.T) {
	zero, err := service.Config{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []service.Kind{service.Poisson, service.Bursty} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var sf ServiceFlags
		sf.Register(fs)
		if err := fs.Parse([]string{"-serve", "-arrivals", kind.String()}); err != nil {
			t.Fatal(err)
		}
		cfg, err := sf.parse()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		def := service.DefaultConfig()
		def.Arrivals.Kind = kind
		def.Arrivals.Rate = def.Rates[0] // the flags' spec carries the sweep's first rate
		want, err := def.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-serve -arrivals %s normalizes to\n %+v\nnot DefaultConfig's\n %+v", kind, got, want)
		}
		if got.Requests != zero.Requests || got.Workers != zero.Workers || got.Queue != zero.Queue ||
			got.Batch != zero.Batch || got.ShedAfter != zero.ShedAfter || !reflect.DeepEqual(got.Policies, zero.Policies) {
			t.Errorf("flag defaults %+v differ from a normalized zero Config %+v", got, zero)
		}
	}
}

// Service knobs without -serve are a hard error, not a silent no-op —
// but both the registered defaults and the zero value pass.
func TestServiceFlagsNeedServe(t *testing.T) {
	var zero ServiceFlags
	if err := zero.Check(); err != nil {
		t.Errorf("zero value rejected: %v", err)
	}
	def := serviceDefaults
	if err := def.Check(); err != nil {
		t.Errorf("registered defaults rejected: %v", err)
	}
	touched := serviceDefaults
	touched.Rate = "0.5"
	if err := touched.Check(); err == nil {
		t.Error("-rate without -serve accepted")
	}

	bad := serviceDefaults
	bad.Serve = true
	bad.Arrivals = "nope"
	if err := bad.Check(); err == nil {
		t.Error("unknown arrival kind accepted")
	}
	bad = serviceDefaults
	bad.Serve = true
	bad.Rate = "fast"
	if err := bad.Check(); err == nil {
		t.Error("non-numeric rate accepted")
	}
	bad = serviceDefaults
	bad.Serve = true
	bad.Policy = "bogus"
	if err := bad.Check(); err == nil {
		t.Error("unknown policy accepted")
	}

	// Every size is refused below 1, in one text form.
	for _, c := range []struct {
		flag string
		set  func(*ServiceFlags)
	}{
		{"requests", func(sf *ServiceFlags) { sf.Requests = 0 }},
		{"workers", func(sf *ServiceFlags) { sf.Workers = 0 }},
		{"queue", func(sf *ServiceFlags) { sf.Queue = 0 }},
		{"batch", func(sf *ServiceFlags) { sf.Batch = 0 }},
		{"queue", func(sf *ServiceFlags) { sf.Queue = -3 }},
	} {
		bad = serviceDefaults
		bad.Serve = true
		c.set(&bad)
		want := "-" + c.flag + " must be ≥ 1 (got "
		if err := bad.Check(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("-%s below 1: Check returned %v, want %q…", c.flag, err, want)
		}
	}
}

// Every service flag is part of the canonical cross-tool vocabulary.
func TestServiceFlagsAreCanonical(t *testing.T) {
	canon := map[string]bool{}
	for _, f := range CanonicalFlags {
		canon[f.Name] = true
	}
	for _, name := range []string{"serve", "arrivals", "rate", "requests", "policy"} {
		if !canon[name] {
			t.Errorf("flag -%s missing from CanonicalFlags", name)
		}
	}
}

// A stray positional argument is a forgotten flag name, not input: one
// row per flag-only tool, each with the flag groups that tool registers
// and the slip that used to run its default job.
func TestNoArgsRejectsStrayArguments(t *testing.T) {
	workload := func(fs *flag.FlagSet) { new(WorkloadFlags).Register(fs) }
	cases := []struct {
		tool     string
		register func(*flag.FlagSet)
		args     []string
		stray    string // "" = accepted
	}{
		{"shbench", func(fs *flag.FlagSet) { new(TopologyFlags).Register(fs) }, []string{"E7"}, "E7"},
		{"shrun", func(fs *flag.FlagSet) {
			workload(fs)
			new(TopologyFlags).Register(fs)
			new(ServiceFlags).Register(fs)
		}, []string{"-serve", "-rate", "8", "bst"}, "bst"},
		{"shprof", workload, []string{"-workload", "bst", "out.profile.json"}, "out.profile.json"},
		{"shinstr", workload, []string{"chase", "-seed", "7"}, "chase"},
		{"shcheck", func(*flag.FlagSet) {}, []string{"a.img", "b.img"}, "a.img"},
		{"shrun", workload, []string{"-workload", "bst", "-seed", "7"}, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet(c.tool, flag.ContinueOnError)
		c.register(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%s %v: %v", c.tool, c.args, err)
		}
		err := NoArgs(fs)
		if c.stray == "" {
			if err != nil {
				t.Errorf("%s %v rejected: %v", c.tool, c.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s %v accepted", c.tool, c.args)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, strconv.Quote(c.stray)) || !strings.Contains(msg, c.tool) || strings.Contains(msg, "\n") {
			t.Errorf("%s: error must be one line naming the tool and %q, got %q", c.tool, c.stray, msg)
		}
	}
}

// An image WriteFile saves reads back through ReadImage unchanged; a
// failed write comes back as WriteFile's error, and a path that cannot
// be created or opened is an error of its own.
func TestWriteFileReadImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.img")
	prog := isa.MustAssemble("main:\n movi r1, 7\n halt\n")
	if err := WriteFile(path, func(w io.Writer) error { return isa.SaveImage(w, prog) }); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prog) {
		t.Errorf("read back %+v, wrote %+v", back, prog)
	}

	failed := errors.New("write failed")
	if err := WriteFile(filepath.Join(dir, "half.img"), func(io.Writer) error { return failed }); !errors.Is(err, failed) {
		t.Errorf("WriteFile returned %v, want the write's own error", err)
	}
	missing := filepath.Join(dir, "no-such-dir", "x.img")
	if err := WriteFile(missing, func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteFile created a file in a missing directory")
	}
	if _, err := ReadImage(missing); err == nil {
		t.Error("ReadImage read a missing file")
	}
}
