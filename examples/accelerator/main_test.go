package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunMatchesGolden pins the example's whole output, which is
// deterministic. Regenerate it deliberately with
//
//	UPDATE_GOLDEN=1 go test ./examples/...
func TestRunMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/output.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s; got:\n%s", golden, got.Bytes())
	}
}
