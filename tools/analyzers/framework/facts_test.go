package framework

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFactRoundTrip(t *testing.T) {
	f := NewFactSet()
	f.Export("detflow.taint", "p.A", "wallclock|A|time.Now")
	f.Export("detflow.taint", "p.B", "maprange|B|range")
	f.Export("barrierguard.llc", "p.A", "mutate")

	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g := NewFactSet()
	if err := g.Merge(data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ kind, key, want string }{
		{"detflow.taint", "p.A", "wallclock|A|time.Now"},
		{"detflow.taint", "p.B", "maprange|B|range"},
		{"barrierguard.llc", "p.A", "mutate"},
	} {
		if v, ok := g.Lookup(tc.kind, tc.key); !ok || v != tc.want {
			t.Errorf("Lookup(%s, %s) = %q, %v; want %q", tc.kind, tc.key, v, ok, tc.want)
		}
	}
	if _, ok := g.Lookup("detflow.taint", "p.C"); ok {
		t.Error("lookup of absent key succeeded")
	}
}

// TestReExport: Encode writes imported ∪ exported, which is what makes
// facts flow transitively through packages that add nothing themselves.
func TestReExport(t *testing.T) {
	base := NewFactSet()
	base.Export("k", "dep.F", "v1")
	data, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}

	mid := NewFactSet()
	if err := mid.Merge(data); err != nil {
		t.Fatal(err)
	}
	mid.Export("k", "mid.G", "v2")
	data2, err := mid.Encode()
	if err != nil {
		t.Fatal(err)
	}

	top := NewFactSet()
	if err := top.Merge(data2); err != nil {
		t.Fatal(err)
	}
	if v, ok := top.Lookup("k", "dep.F"); !ok || v != "v1" {
		t.Errorf("transitive fact lost: got %q, %v", v, ok)
	}
	if got, want := top.Keys("k"), []string{"dep.F", "mid.G"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %v, want %v (sorted)", got, want)
	}
}

// TestExportedShadowsImported: a pass's own verdict about a function
// wins over a stale imported one.
func TestExportedShadowsImported(t *testing.T) {
	f := NewFactSet()
	if err := f.Merge([]byte(`{"k":{"p.F":"old"}}`)); err != nil {
		t.Fatal(err)
	}
	f.Export("k", "p.F", "new")
	if v, _ := f.Lookup("k", "p.F"); v != "new" {
		t.Errorf("exported fact should shadow imported, got %q", v)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func() []byte {
		f := NewFactSet()
		f.Export("b", "y", "2")
		f.Export("a", "x", "1")
		f.Export("a", "z", "3")
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := mk(), mk(); string(a) != string(b) {
		t.Errorf("Encode is not deterministic:\n%s\n%s", a, b)
	}
}

// TestMergeFileMissingAndEmpty: the go command omits or truncates fact
// files for packages that exported nothing; both read as empty.
func TestMergeFileMissingAndEmpty(t *testing.T) {
	f := NewFactSet()
	if err := f.MergeFile(filepath.Join(t.TempDir(), "nonexistent.vetx")); err != nil {
		t.Fatalf("missing vetx file must read as empty: %v", err)
	}
	empty := filepath.Join(t.TempDir(), "empty.vetx")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.MergeFile(empty); err != nil {
		t.Fatalf("empty vetx file must read as empty: %v", err)
	}
	if err := f.Merge([]byte("not json")); err == nil {
		t.Error("corrupt fact data should error")
	}
}

func TestObjectKey(t *testing.T) {
	pkg := types.NewPackage("repro/internal/mem", "mem")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fn := types.NewFunc(token.NoPos, pkg, "NewSharedLLC", sig)
	if got := ObjectKey(fn); got != "repro/internal/mem.NewSharedLLC" {
		t.Errorf("ObjectKey = %q", got)
	}

	named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "SharedLLC", nil), types.NewStruct(nil, nil), nil)
	recv := types.NewVar(token.NoPos, pkg, "s", types.NewPointer(named))
	msig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	m := types.NewFunc(token.NoPos, pkg, "Commit", msig)
	if got := ObjectKey(m); got != "(*repro/internal/mem.SharedLLC).Commit" {
		t.Errorf("method ObjectKey = %q", got)
	}
}

// TestSelectAnalyzers covers the -run filter used by both the vet
// protocol flag and the SHLINT_RUN fallback.
func TestSelectAnalyzers(t *testing.T) {
	a := &Analyzer{Name: "alpha"}
	b := &Analyzer{Name: "beta"}
	all := []*Analyzer{a, b}

	got, err := selectAnalyzers(all, "")
	if err != nil || len(got) != 2 {
		t.Fatalf("empty -run should select all: %v, %v", got, err)
	}
	got, err = selectAnalyzers(all, "beta, alpha")
	if err != nil || len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("-run order should be respected: %v, %v", got, err)
	}
	if _, err = selectAnalyzers(all, "gamma"); err == nil {
		t.Error("unknown analyzer name should error")
	}
	if _, err = selectAnalyzers(all, " , "); err == nil {
		t.Error("selecting no analyzers should error")
	}
}

func TestParseOptions(t *testing.T) {
	opts, cfg := parseOptions([]string{"-run=detflow,barrierguard", "-json", "/tmp/vet.cfg"})
	if opts.run != "detflow,barrierguard" || !opts.json || cfg != "/tmp/vet.cfg" {
		t.Errorf("parseOptions = %+v, %q", opts, cfg)
	}
	opts, cfg = parseOptions([]string{"-json=false", "b001/vet.cfg"})
	if opts.json || cfg != "b001/vet.cfg" {
		t.Errorf("parseOptions = %+v, %q", opts, cfg)
	}
}
