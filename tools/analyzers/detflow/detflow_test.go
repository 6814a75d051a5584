package detflow

import (
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/tools/analyzers/internal/analyzertest"
)

func deps() map[string]*types.Package {
	return map[string]*types.Package{
		"time":      analyzertest.Time(),
		"math/rand": analyzertest.Rand(),
		"fmt":       analyzertest.Fmt(),
		"reflect":   analyzertest.Reflect(),
		"sort":      analyzertest.Sort(),
	}
}

// engine is not a cycle-domain package name, so fixtures checked under
// it exercise the interprocedural scope alone.
const engine = "repro/internal/engine"

// reclaimSrc is a reduction of the nondeterminism bug fixed in PR 1:
// mem.Hierarchy.reclaim iterated the in-flight fill map directly, so
// cache lines were installed — and eviction victims chosen — in map
// iteration order, which differs across runs with identical seeds.
const reclaimSrc = `package mem

type fill struct {
	line  uint64
	ready uint64
}

type hierarchy struct {
	fills map[uint64]fill
}

func (h *hierarchy) install(line uint64) {}

// reclaim installs every completed fill. BUG: map iteration order
// decides install order, and install order decides evictions.
func (h *hierarchy) reclaim(now uint64) {
	for line, f := range h.fills {
		if f.ready <= now {
			h.install(line)
			delete(h.fills, line)
		}
	}
}
`

// TestReclaimBugReduction: the PR-1 reclaim bug in its original form,
// inside a cycle-domain package with no entry point, is caught by the
// backstop scope at the construct.
func TestReclaimBugReduction(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/mem",
		map[string]string{"reclaim.go": reclaimSrc}, deps(), Analyzer)
	if len(diags) != 1 || diags[0].Rule != "maprange" {
		t.Fatalf("want exactly 1 maprange diagnostic for the reclaim reduction, got %v",
			analyzertest.Messages(diags))
	}
}

// TestReclaimBugCaughtInterprocedurally is the PR-1 reclaim bug in its
// disguised form: the map iteration lives in a helper package outside
// the cycle domain (where the backstop does not apply), behind a
// wrapper, and still decides install order. detflow must carry the
// taint across both package boundary and wrapper to the annotated
// entry point, with the full call chain in the diagnostic.
func TestReclaimBugCaughtInterprocedurally(t *testing.T) {
	p := analyzertest.NewProject(deps())

	// The helper package: not a cycle-domain package name, so the
	// backstop never looks at it.
	diags := p.Check(t, "repro/internal/fillutil", map[string]string{
		"ready.go": `package fillutil

// Ready harvests the completed fills. BUG: map iteration order decides
// the result order.
func Ready(fills map[uint64]uint64, now uint64) []uint64 {
	var out []uint64
	for line, ready := range fills {
		if ready <= now {
			out = append(out, line)
		}
	}
	return out
}
`}, Analyzer)
	if len(diags) != 0 {
		t.Fatalf("helper package has no entry points, want no diagnostics, got %v",
			analyzertest.Messages(diags))
	}

	diags = p.Check(t, "repro/internal/mem", map[string]string{
		"reclaim.go": `package mem

import "repro/internal/fillutil"

type hierarchy struct {
	fills    map[uint64]uint64
	installs []uint64
}

// harvest wraps the helper — one more frame between the entry point
// and the source.
func (h *hierarchy) harvest(now uint64) []uint64 {
	return fillutil.Ready(h.fills, now)
}

//shsim:cycle-entry
func (h *hierarchy) reclaim(now uint64) {
	h.installs = append(h.installs, h.harvest(now)...)
}
`}, Analyzer)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %v", analyzertest.Messages(diags))
	}
	d := diags[0]
	if d.Rule != "maprange" {
		t.Errorf("want rule maprange, got %q", d.Rule)
	}
	for _, want := range []string{"(*hierarchy).reclaim", "(*hierarchy).harvest", "Ready", "range over map"} {
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic missing %q: %s", want, d.Message)
		}
	}
}

// TestIntrinsicSourcesAttributed seeds one defect per intrinsic rule
// and checks each is caught at the entry with the right attribution.
func TestIntrinsicSourcesAttributed(t *testing.T) {
	cases := []struct {
		name string
		body string
		rule string
	}{
		{"wallclock", `func helper() { _ = time.Now() }`, "wallclock"},
		{"globalrand", `func helper() { _ = rand.Intn(8) }`, "globalrand"},
		{"mapkeys", `func helper() { _ = reflect.ValueOf(0).MapKeys() }`, "mapkeys"},
		{"addrformat", `func helper() { _ = fmt.Sprintf("%p", nil) }`, "addrformat"},
		{"ptrsort", `func helper() { var xs []*int; sort.Slice(xs, func(i, j int) bool { return *xs[i] < *xs[j] }) }`, "ptrsort"},
		{"funcvalue", `func helper() { f := time.Now; _ = f }`, "wallclock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := `package engine

import (
	"time"
	"math/rand"
	"fmt"
	"reflect"
	"sort"
)

var _ = time.Now
var _ = rand.Intn
var _ = fmt.Sprintf
var _ = reflect.ValueOf
var _ = sort.Slice

` + tc.body + `

//shsim:cycle-entry
func step() { helper() }
`
			diags := analyzertest.Check(t, engine,
				map[string]string{"step.go": src}, deps(), Analyzer)
			if len(diags) != 1 {
				t.Fatalf("want 1 diagnostic, got %v", analyzertest.Messages(diags))
			}
			if diags[0].Rule != tc.rule {
				t.Errorf("want rule %q, got %q (%s)", tc.rule, diags[0].Rule, diags[0].Message)
			}
			if !strings.Contains(diags[0].Message, "step → helper") {
				t.Errorf("chain missing from %q", diags[0].Message)
			}
		})
	}
}

func TestStructuralSources(t *testing.T) {
	src := `package engine

func pickReady(a, b chan int) int {
	select { // multi-case select: runtime picks among ready cases
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func addrOf(p *int) uintptr {
	return uintptr(unsafePtr(p))
}

func unsafePtr(p *int) uintptr { return uintptr(unsafePointerOf(p)) }

//shsim:cycle-entry
func stepSelect(a, b chan int) int { return pickReady(a, b) }

//shsim:cycle-entry
func stepAddr(p *int) uintptr { return addrOf(p) }
`
	// unsafePointerOf needs unsafe; declare it in a second file.
	unsafeSrc := `package engine

import "unsafe"

func unsafePointerOf(p *int) unsafe.Pointer { return unsafe.Pointer(p) }
`
	diags := analyzertest.Check(t, engine,
		map[string]string{"step.go": src, "unsafe.go": unsafeSrc}, deps(), Analyzer)
	rules := map[string]bool{}
	for _, d := range diags {
		rules[d.Rule] = true
	}
	if len(diags) != 2 || !rules["select"] || !rules["addrvalue"] {
		t.Fatalf("want one select and one addrvalue diagnostic, got %v",
			analyzertest.Messages(diags))
	}
}

func TestSingleReadyChannelNotFlagged(t *testing.T) {
	src := `package exec

//shsim:cycle-entry
func step(a chan int) int {
	select { // single communication case: deterministic
	case v := <-a:
		return v
	}
}
`
	diags := analyzertest.Check(t, "repro/internal/exec",
		map[string]string{"step.go": src}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics for single-case select, got %v",
			analyzertest.Messages(diags))
	}
}

// TestSuppressionStopsPropagation: a //shsim:nondeterministic-ok with a
// written reason licenses the function and everything below it.
func TestSuppressionStopsPropagation(t *testing.T) {
	src := `package engine

import "time"

//shsim:nondeterministic-ok host telemetry only; never feeds simulated state
func wallTelemetry() time.Time { return time.Now() }

//shsim:cycle-entry
func step() { _ = wallTelemetry() }
`
	diags := analyzertest.Check(t, engine,
		map[string]string{"step.go": src}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want suppression to license the subtree, got %v",
			analyzertest.Messages(diags))
	}
}

func TestReasonlessSuppressionIsAFinding(t *testing.T) {
	src := `package engine

import "time"

//shsim:nondeterministic-ok
func wallTelemetry() time.Time { return time.Now() }

//shsim:cycle-entry
func step() { _ = wallTelemetry() }
`
	diags := analyzertest.Check(t, engine,
		map[string]string{"step.go": src}, deps(), Analyzer)
	// The empty suppression is itself reported AND does not license the
	// subtree, so the wallclock taint still reaches the entry.
	rules := map[string]bool{}
	for _, d := range diags {
		rules[d.Rule] = true
	}
	if len(diags) != 2 || !rules["suppression"] || !rules["wallclock"] {
		t.Fatalf("want suppression + wallclock diagnostics, got %v",
			analyzertest.Messages(diags))
	}
}

func TestMisplacedDirective(t *testing.T) {
	src := `package exec

//shsim:cycle-entry
var notAFunction int

func step() {}
`
	diags := analyzertest.Check(t, "repro/internal/exec",
		map[string]string{"step.go": src}, deps(), Analyzer)
	if len(diags) != 1 || diags[0].Rule != "misplaced" {
		t.Fatalf("want one misplaced diagnostic, got %v", analyzertest.Messages(diags))
	}
}

// TestSeededRandNotFlagged: methods on an explicitly seeded source are
// the sanctioned randomness; only the package-level global source is a
// taint.
func TestSeededRandNotFlagged(t *testing.T) {
	src := `package exec

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

//shsim:cycle-entry
func step(r *rng) uint64 { return r.next() }
`
	diags := analyzertest.Check(t, "repro/internal/exec",
		map[string]string{"step.go": src}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics for threaded seeded rng, got %v",
			analyzertest.Messages(diags))
	}
}

// TestFactExportCoversNonEntryFunctions: the helper package exports
// taints for its tainted functions even though it reports nothing — the
// dependent package's report depends on it.
func TestFactExportCoversNonEntryFunctions(t *testing.T) {
	p := analyzertest.NewProject(deps())
	p.Check(t, "repro/internal/util", map[string]string{
		"util.go": `package util

import "time"

func Stamp() int64 { return now() }

func now() int64 { return int64(nowTime()) }

func nowTime() uint64 { _ = time.Now(); return 0 }
`}, Analyzer)
	for _, fn := range []string{"repro/internal/util.Stamp", "repro/internal/util.now", "repro/internal/util.nowTime"} {
		if _, ok := p.Facts().Lookup(FactKind, fn); !ok {
			t.Errorf("no exported taint fact for %s", fn)
		}
	}
}

// rules is the rule set the backstop reports; everyRuleBody holds one
// source per rule, in this order.
var rules = []string{"randimport", "wallclock", "globalrand", "maprange", "select",
	"addrformat", "addrvalue", "mapkeys", "ptrsort"}

const everyRuleBody = `

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"
	"unsafe"
)

func step(m map[int]bool, a, b chan int, xs []*int, p *int) {
	_ = time.Since(time.Time{})
	_ = rand.Intn(8)
	for range m {
	}
	select {
	case <-a:
	case <-b:
	}
	_ = fmt.Sprintf("%p", p)
	_ = uintptr(unsafe.Pointer(p))
	_ = reflect.ValueOf(m).MapKeys()
	sort.Slice(xs, func(i, j int) bool { return false })
}
`

// everyRuleSrc is everyRuleBody as a file of the package at importPath.
func everyRuleSrc(importPath string) string {
	return "package " + path.Base(importPath) + everyRuleBody
}

// TestBackstopCoversEveryCycleDomainPackage: every file of every
// cycle-domain package is held to every rule, with no entry point
// needed.
func TestBackstopCoversEveryCycleDomainPackage(t *testing.T) {
	var names []string
	for name := range cycleDomain {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			pkg := "repro/internal/" + name
			diags := analyzertest.Check(t, pkg, map[string]string{"step.go": everyRuleSrc(pkg)}, deps(), Analyzer)
			var got []string
			for _, d := range diags {
				got = append(got, d.Rule)
				if !strings.Contains(d.Message, "cycle-domain package") {
					t.Errorf("%s: backstop message lacks its scope: %s", pkg, d.Message)
				}
			}
			if !slices.Equal(got, rules) {
				t.Errorf("%s: want rules %v, got %v", pkg, rules, analyzertest.Messages(diags))
			}
		})
	}
}

// violationsSrc mixes the everyday sources a simulator step might reach
// for: map range, wall-clock reads and the global rand.
const violationsSrc = `package exec

import (
	"time"
	"math/rand"
)

func step(pending map[int]bool) int {
	n := 0
	for id := range pending { // violation: map range
		n += id
	}
	start := time.Now()      // violation: wall clock
	_ = time.Since(start)    // violation: wall clock
	return n + rand.Intn(8)  // violation: import and global source
}
`

// TestFlagsEveryViolationClass: each source in violationsSrc is reported
// once, at the construct, in source order.
func TestFlagsEveryViolationClass(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/exec",
		map[string]string{"step.go": violationsSrc}, deps(), Analyzer)
	want := []struct{ rule, mention string }{
		{"randimport", "math/rand"},
		{"maprange", "range over map"},
		{"wallclock", "time.Now"},
		{"wallclock", "time.Since"},
		{"globalrand", "rand.Intn"},
	}
	if len(diags) != len(want) {
		t.Fatalf("want %d diagnostics, got %v", len(want), analyzertest.Messages(diags))
	}
	for i, w := range want {
		if diags[i].Rule != w.rule || !strings.Contains(diags[i].Message, w.mention) {
			t.Errorf("diagnostic %d: want %s mentioning %q, got %s: %s",
				i, w.rule, w.mention, diags[i].Rule, diags[i].Message)
		}
	}
}

// TestBackstopCatchesWhatBodiesHide pins the sources that no function
// body scan reaches, or that a suppression hides from the entry-point
// scope: the backstop reports each at the construct.
func TestBackstopCatchesWhatBodiesHide(t *testing.T) {
	cases := []struct{ name, src, rule string }{
		{"package-level initialiser", `import "time"

var t0 = time.Now()
`, "wallclock"},
		{"function value", `import "time"

func clock() func() time.Time {
	f := time.Now
	return f
}
`, "wallclock"},
		{"import used only by a constructor", `import "math/rand"

var r = rand.New(1)
`, "randimport"},
		{"suppressed function", `import "time"

//shsim:nondeterministic-ok host telemetry only
func wall() time.Time { return time.Now() }
`, "wallclock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := analyzertest.Check(t, "repro/internal/machine",
				map[string]string{"machine.go": "package machine\n\n" + tc.src}, deps(), Analyzer)
			if len(diags) != 1 || diags[0].Rule != tc.rule {
				t.Fatalf("want one %s diagnostic, got %v", tc.rule, analyzertest.Messages(diags))
			}
		})
	}
}

func TestNonCycleDomainPackagesExempt(t *testing.T) {
	// The same sources are fine outside the cycle domain when no entry
	// point reaches them: analysis packages may use maps and clocks
	// freely.
	for _, pkg := range []string{
		"repro/internal/profile", // under internal/, not a cycle-domain name
		"repro/exec",             // cycle-domain name, not under internal/
	} {
		diags := analyzertest.Check(t, pkg,
			map[string]string{"step.go": everyRuleSrc(pkg)}, deps(), Analyzer)
		if len(diags) != 0 {
			t.Errorf("%s: want no diagnostics outside the cycle domain, got %v",
				pkg, analyzertest.Messages(diags))
		}
	}
}

func TestTestFilesExempt(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/exec", map[string]string{
		"exec.go":      "package exec\n",
		"exec_test.go": everyRuleSrc("repro/internal/exec"),
	}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want test files exempt, got %v", analyzertest.Messages(diags))
	}
}

func TestBenignConstructsNotFlagged(t *testing.T) {
	src := `package cpu

import "time"

func ok(xs []int, ch chan int, d time.Duration) int {
	s := 0
	for _, x := range xs { // slice range is fine
		s += x
	}
	for x := range ch { // channel range is fine
		s += x
	}
	_ = d * 2 // using time.Duration arithmetic is fine
	return s
}
`
	diags := analyzertest.Check(t, "repro/internal/cpu",
		map[string]string{"cpu.go": src}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", analyzertest.Messages(diags))
	}
}

func TestInCycleDomain(t *testing.T) {
	cases := map[string]bool{
		"repro/internal/mem":     true,
		"repro/internal/cpu":     true,
		"repro/internal/exec":    true,
		"repro/internal/smt":     true,
		"repro/internal/pebs":    true,
		"repro/internal/machine": true,
		"repro/internal/service": true,
		"other/internal/mem":     true, // any module's internal cycle domain
		"repro/internal/sched":   false,
		"repro/internal/profile": false,
		"repro/internal/mem/sub": false, // sub isn't a cycle-domain name
		"repro/mem":              false, // not under internal/
		"mem":                    false,
		"repro/internal":         false,
		"repro/tools/analyzers":  false,
	}
	for path, want := range cases {
		if got := inCycleDomain(path); got != want {
			t.Errorf("inCycleDomain(%q) = %v, want %v", path, got, want)
		}
	}
}
