// Package analyzers_test exercises the full vettool protocol: it
// builds the real shlint binary and runs `go vet -vettool=shlint` over
// the fixture module in testdata/shlintmod, asserting that every
// seeded defect is caught by the right analyzer and rule and the
// control packages pass. This is the suite that proves the unitchecker
// handshake (-V=full, -flags, vet.cfg, vetx fact files, vet.out)
// against the actual go command rather than a reimplementation of it.
package analyzers_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildShlint compiles the vettool into t.TempDir and returns its path.
func buildShlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shlint")
	cmd := exec.Command("go", "build", "-o", bin, "repro/tools/analyzers/shlint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building shlint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // tools/analyzers -> repo root
}

func fixtureDir(t *testing.T) string {
	return filepath.Join(repoRoot(t), "tools", "analyzers", "testdata", "shlintmod")
}

func runVet(t *testing.T, vettool, dir string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + vettool}, args...)...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestVettoolFlagsFixtureModule sweeps the whole fixture module and
// checks one seeded defect per analyzer rule, with attribution.
func TestVettoolFlagsFixtureModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go command")
	}
	shlint := buildShlint(t)
	out, err := runVet(t, shlint, fixtureDir(t), "./...")
	if err == nil {
		t.Fatalf("go vet should fail on the fixture module; output:\n%s", out)
	}
	for _, want := range []string{
		// detflow backstop: every file of a cycle-domain package.
		"reclaim.go", "detflow(maprange): nondeterminism source in cycle-domain package",
		"detflow(wallclock): nondeterminism source in cycle-domain package",
		"detflow(randimport)",
		// detflow entry points: interprocedural taint through wrapper and
		// package boundary — the PR-1 reclaim bug in disguise, with the chain.
		"detflow(maprange)", "(*Engine).Step → (*Engine).harvest → Ready",
		"detflow(wallclock)", "(*Engine).Tick → stamp",
		"detflow(select)", "Drain",
		// barrierguard: quantum protocol.
		"barrierguard(quantum-mutate)", "(*core).Run → (*core).flush → (*SharedLLC).Commit",
		"barrierguard(unclassified)", "(*SharedLLC).Evict",
		"barrierguard(conflict)", "(*Probe).Sample",
		// allocguard vet layer.
		"allocguard(make)", "allocguard(goroutine)", "allocguard(fmtcall)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
	for _, clean := range []string{"ok.go", "profile", "Barrier", "fillutil/ready.go"} {
		if strings.Contains(out, clean) {
			t.Errorf("control %q was flagged:\n%s", clean, out)
		}
	}
}

func TestVettoolPassesControlPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go command")
	}
	shlint := buildShlint(t)
	out, err := runVet(t, shlint, fixtureDir(t), "./internal/profile/")
	if err != nil {
		t.Fatalf("clean package rejected: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("expected silent pass, got:\n%s", out)
	}
}

// TestVettoolRunSelection forwards -run through the go command: with
// only barrierguard selected, the engine package (whose defects are all
// detflow findings) must pass.
func TestVettoolRunSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go command")
	}
	shlint := buildShlint(t)
	out, err := runVet(t, shlint, fixtureDir(t), "-run=barrierguard", "./internal/engine/")
	if err != nil {
		t.Fatalf("-run=barrierguard should pass the engine package: %v\n%s", err, out)
	}
	out, err = runVet(t, shlint, fixtureDir(t), "-run=detflow", "./internal/engine/")
	if err == nil {
		t.Fatalf("-run=detflow should still fail the engine package:\n%s", out)
	}
	if !strings.Contains(out, "detflow(") {
		t.Errorf("want detflow diagnostics, got:\n%s", out)
	}
}

// TestVettoolJSONOutput forwards -json and decodes the structured
// diagnostics, asserting rule attribution survives the wire format.
func TestVettoolJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go command")
	}
	shlint := buildShlint(t)
	cmd := exec.Command("go", "vet", "-vettool="+shlint, "-json", "./internal/hot/")
	cmd.Dir = fixtureDir(t)
	// The go command folds the tool's stdout into its own diagnostic
	// stream, so the JSON lines arrive on go vet's stderr.
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if cmd.Run() == nil {
		t.Fatalf("hot package should fail; output:\n%s", out.String())
	}
	type wireDiag struct {
		Analyzer string `json:"analyzer"`
		Rule     string `json:"rule"`
		Posn     string `json:"posn"`
		Message  string `json:"message"`
	}
	rules := map[string]int{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var unit struct {
			Package     string     `json:"package"`
			Diagnostics []wireDiag `json:"diagnostics"`
		}
		if err := json.Unmarshal([]byte(line), &unit); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if unit.Package != "shlintfixture/internal/hot" {
			continue
		}
		for _, d := range unit.Diagnostics {
			if d.Analyzer != "allocguard" {
				t.Errorf("unexpected analyzer %q in hot package: %+v", d.Analyzer, d)
			}
			if d.Posn == "" || d.Message == "" {
				t.Errorf("incomplete diagnostic: %+v", d)
			}
			rules[d.Rule]++
		}
	}
	if rules["make"] != 2 || rules["goroutine"] != 1 || rules["fmtcall"] != 1 {
		t.Errorf("want 2 make + 1 goroutine + 1 fmtcall in JSON output, got %v", rules)
	}
}

// TestVettoolVendoredModule proves the vet.cfg ImportMap handling: a
// module whose dependency resolves through vendor/ presents vendored
// import paths in the config, and the tool must still find export data
// and fact files for it.
func TestVettoolVendoredModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go command")
	}
	shlint := buildShlint(t)
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                        "module vendfixture\n\ngo 1.22\n\nrequire example.com/dep v0.0.0\n",
		"vendor/modules.txt":            "# example.com/dep v0.0.0\n## explicit; go 1.22\nexample.com/dep\n",
		"vendor/example.com/dep/go.mod": "module example.com/dep\n\ngo 1.22\n",
		"vendor/example.com/dep/dep.go": `package dep

// Tick ranges a map inside the dependency.
func Tick(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`,
		"internal/exec/step.go": `package exec

import "example.com/dep"

//shsim:cycle-entry
func Step(m map[int]int) int { return dep.Tick(m) }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runVet(t, shlint, dir, "-mod=vendor", "./...")
	if err == nil {
		t.Fatalf("vendored module should fail vet (detflow through the vendored dep):\n%s", out)
	}
	if strings.Contains(out, "no export data") || strings.Contains(out, "typechecking") {
		t.Fatalf("vendored import paths broke type-checking:\n%s", out)
	}
	// The vendored unit is vetted for facts like any other in-module
	// dependency, so detflow's taint crosses the vendor boundary: the
	// map range in example.com/dep reaches the annotated entry.
	if !strings.Contains(out, "detflow(maprange)") || !strings.Contains(out, "Step → Tick") {
		t.Errorf("want detflow taint through the vendored dep:\n%s", out)
	}
}

// TestVettoolVersionAndFlagsHandshake runs the two protocol probe
// invocations the go command issues before any vet.cfg.
func TestVettoolVersionAndFlagsHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	shlint := buildShlint(t)

	out, err := exec.Command(shlint, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !regexp.MustCompile(`^shlint(\.exe)? version 2\.0-[0-9a-f]{12}\n$`).Match(out) {
		t.Errorf("-V=full output %q does not match the cache-key contract", out)
	}

	out, err = exec.Command(shlint, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	got := map[string]bool{}
	for _, f := range flags {
		got[f.Name] = f.Bool
		if f.Usage == "" {
			t.Errorf("flag %s has no usage", f.Name)
		}
	}
	if b, ok := got["run"]; !ok || b {
		t.Errorf("want string flag \"run\", got %v", flags)
	}
	if b, ok := got["json"]; !ok || !b {
		t.Errorf("want bool flag \"json\", got %v", flags)
	}
}

// TestAllocGateOnFixture runs the escape-analysis layer over the
// fixture's hot package: the vet layer cannot see Leak or Fib, only
// the compiler's own diagnostics can.
func TestAllocGateOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go compiler")
	}
	shlint := buildShlint(t)
	cmd := exec.Command(shlint, "-allocgate", "./internal/hot/")
	cmd.Dir = fixtureDir(t)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		t.Fatalf("gate should fail on the hot package:\n%s", buf.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on violations, got %v:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"allocguard(heapalloc)", "Leak",
		"allocguard(inline)", "Fib",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gate output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Sum") {
		t.Errorf("clean hot function Sum must pass the gate:\n%s", out)
	}
}
