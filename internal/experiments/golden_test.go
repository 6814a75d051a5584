package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// goldenPath is the committed fixture holding every experiment's rendered
// tables and metrics at the default machine. It is the §3a determinism
// contract made executable: any change to the simulator that alters even
// one byte of one table fails this test, so perf rewrites (like PR 2's
// flat MSHR table) must prove observational equivalence to land.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTables
//
// and justify the diff in the PR description.
const goldenPath = "testdata/golden_tables.txt"

// render produces the canonical byte representation of one experiment
// result: the human tables followed by the sorted flat metrics.
func renderGolden(r *Result) string {
	return r.String() + r.MetricsString() + "\n"
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation regeneration is slow; skipped under -short")
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "golden evaluation tables — seed %d\n\n", core.DefaultMachine().Seed)
	for _, e := range All() {
		res, err := defaultResult(e.ID)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		buf.WriteString(renderGolden(res))
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, buf.Len())
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	// Pinpoint the first divergence so the failure names the experiment
	// and line rather than dumping two ~100KiB blobs.
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("evaluation output diverges from golden fixture at line %d:\n  got:  %q\n  want: %q",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("evaluation output length diverges from golden fixture: got %d lines, want %d", len(gotLines), len(wantLines))
}
