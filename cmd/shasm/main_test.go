package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/isa"
)

const src = `main:
        movi r3, 100
    loop:
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
`

// writeSource writes src into a fresh directory and returns its path.
func writeSource(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// An image written with -o and read back with -d is the source's
// program: the disassembly reassembles to the same instructions and
// symbols.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	path := writeSource(t)
	img := filepath.Join(filepath.Dir(path), "prog.img")
	var out bytes.Buffer
	if err := run(&out, path, img, false, false); err != nil {
		t.Fatal(err)
	}
	if want := "assembled 6 instructions, 2 symbols -> " + img + "\n"; out.String() != want {
		t.Errorf("-o printed %q, want %q", out.String(), want)
	}
	var dis bytes.Buffer
	if err := run(&dis, img, "", true, false); err != nil {
		t.Fatal(err)
	}
	back, err := isa.Assemble(dis.String())
	if err != nil {
		t.Fatalf("disassembly does not reassemble: %v\n%s", err, dis.String())
	}
	if want := isa.MustAssemble(src); !reflect.DeepEqual(back, want) {
		t.Errorf("round trip changed the program:\n%s", dis.String())
	}
}

// -stats prints the instruction count, one line per opcode in name
// order, and the CFG summary.
func TestStatsCountsOpcodes(t *testing.T) {
	path := writeSource(t)
	if err := run(&bytes.Buffer{}, path, "", false, false); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path+".img", "", false, true); err != nil {
		t.Fatal(err)
	}
	want := `6 instructions
  addi       1
  cmpi       1
  halt       1
  jgt        1
  load       1
  movi       1
3 basic blocks, 1 roots, 1 natural loops
1 candidate loads
`
	if out.String() != want {
		t.Errorf("-stats printed\n%s\nwant\n%s", out.String(), want)
	}
}

// A missing image and a corrupt one are errors under -d and -stats.
func TestBadImagesFail(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.img")
	if err := os.WriteFile(corrupt, []byte(`{"magic": "softhide-image-v1", "words": "AAAA"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path string }{
		{"missing", filepath.Join(dir, "missing.img")},
		{"corrupt", corrupt},
	} {
		for _, stats := range []bool{false, true} {
			if err := run(&bytes.Buffer{}, tc.path, "", !stats, stats); err == nil {
				t.Errorf("%s image (stats %t) read without error", tc.name, stats)
			}
		}
	}
}
