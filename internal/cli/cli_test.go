package cli

import (
	"bytes"
	"flag"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
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
	badBanks := TopologyFlags{Cores: 4, LLCBanks: 3}
	if _, err := badBanks.Topology(core.DefaultMachine()); err == nil {
		t.Error("non-power-of-two bank count accepted")
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
