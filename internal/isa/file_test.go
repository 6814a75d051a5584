package isa

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadImageRoundTrip(t *testing.T) {
	prog := MustAssemble(sampleAsm)
	img := Encode(prog)
	var buf bytes.Buffer
	if err := SaveImage(&buf, prog); err != nil {
		t.Fatal(err)
	}
	back, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Encode(back)
	if len(got.Words) != len(img.Words) {
		t.Fatalf("word count %d != %d", len(got.Words), len(img.Words))
	}
	for i := range img.Words {
		if got.Words[i] != img.Words[i] {
			t.Fatalf("word %d: %#x != %#x", i, got.Words[i], img.Words[i])
		}
	}
	if got.Symbols["loop"] != img.Symbols["loop"] {
		t.Error("symbols lost")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json at all",
		`{"magic":"wrong","words":""}`,
		`{"magic":"softhide-image-v1","words":"!!!notbase64"}`,
		`{"magic":"softhide-image-v1","words":"AAAA"}`, // 3 bytes, not multiple of 8
	}
	for _, c := range cases {
		if _, err := LoadImage(strings.NewReader(c)); err == nil {
			t.Errorf("LoadImage(%q) should fail", c)
		}
	}
	// Structurally valid JSON whose words do not decode to a program
	// (branch out of range).
	bad := &Program{Instrs: []Instr{{Op: OpJmp, Imm: 99}}}
	var buf bytes.Buffer
	if err := SaveImage(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(&buf); err == nil {
		t.Error("invalid program should fail validation on load")
	}
}

func TestReferenceInterpreterBasics(t *testing.T) {
	prog := MustAssemble(`
        movi r1, 6
        movi r2, 7
        mul r1, r1, r2
        halt
    `)
	st := &RefState{}
	st.Regs[SP] = 1 << 12
	m := &mapMemory{data: map[uint64]uint64{}}
	if err := RefRun(prog, st, m, 100); err != nil {
		t.Fatal(err)
	}
	if st.Result != 42 {
		t.Errorf("result = %d", st.Result)
	}
	if err := RefStep(prog, st, m); err == nil {
		t.Error("stepping halted state should fail")
	}
}

func TestReferenceInterpreterFuel(t *testing.T) {
	prog := MustAssemble("spin:\n jmp spin")
	st := &RefState{}
	if err := RefRun(prog, st, &mapMemory{data: map[uint64]uint64{}}, 100); err == nil {
		t.Error("fuel exhaustion should error")
	}
}

// mapMemory is a trivial RefMemory for interpreter unit tests.
type mapMemory struct{ data map[uint64]uint64 }

func (m *mapMemory) Read64(addr uint64) (uint64, error) { return m.data[addr], nil }
func (m *mapMemory) Write64(addr, v uint64) error       { m.data[addr] = v; return nil }

// TestReferenceInterpreterAllOps drives every opcode class through the
// reference interpreter directly (the cross-package differential tests
// cover it too, but this keeps the semantics pinned at unit level).
func TestReferenceInterpreterAllOps(t *testing.T) {
	prog := MustAssemble(`
        movi r1, 7          ; alu
        mov  r2, r1
        add  r3, r1, r2     ; 14
        sub  r3, r3, r1     ; 7
        mul  r3, r3, r2     ; 49
        movi r4, 0
        div  r5, r3, r4     ; 0 (div by zero)
        div  r5, r3, r2     ; 7
        and  r6, r3, r2
        or   r6, r6, r1
        xor  r6, r6, r6     ; 0
        movi r7, 1
        shl  r7, r7, r2     ; 1<<7
        shr  r7, r7, r2     ; 1
        addi r7, r7, 4
        muli r7, r7, 3      ; 15
        andi r7, r7, 12     ; 12
        shli r7, r7, 1      ; 24
        shri r7, r7, 2      ; 6
        movi r8, 512
        store [r8], r7
        load r9, [r8]       ; 6
        prefetch [r8]
        check [r8+8]
        yield
        cyield
        nop
        accel [r8]
        accwait r10
        cmp r9, r7
        jeq eq1
        halt
    eq1:
        cmpi r9, 100
        jlt lt1
        halt
    lt1:
        cmpi r9, 6
        jle le1
        halt
    le1:
        cmpi r9, 5
        jgt gt1
        halt
    gt1:
        cmpi r9, 6
        jge ge1
        halt
    ge1:
        cmpi r9, 0
        jne ne1
        halt
    ne1:
        jmp fin
        halt
    fin:
        call fn
        add r1, r9, r11
        halt
    fn:
        movi r11, 100
        ret
    `)
	m := &mapMemory{data: map[uint64]uint64{}}
	st := &RefState{}
	st.Regs[SP] = 1 << 11
	if err := RefRun(prog, st, m, 10000); err != nil {
		t.Fatal(err)
	}
	if st.Result != 106 {
		t.Fatalf("result = %d, want 106", st.Result)
	}
	if st.Regs[10] == 0 {
		t.Error("accwait result missing")
	}
}

func TestReferenceInterpreterErrors(t *testing.T) {
	m := &mapMemory{data: map[uint64]uint64{}}
	// Bad PC.
	st := &RefState{PC: 99}
	if err := RefStep(MustAssemble("halt"), st, m); err == nil {
		t.Error("bad pc accepted")
	}
	// Bare accwait reads the sticky (zero) record without error.
	st = &RefState{}
	if err := RefStep(MustAssemble("accwait r1\nhalt"), st, m); err != nil {
		t.Errorf("bare accwait should be benign: %v", err)
	}
	// Ret to invalid address.
	st = &RefState{}
	st.Regs[SP] = 64
	m.data[64] = 9999
	if err := RefStep(MustAssemble("ret"), st, m); err == nil {
		t.Error("ret to junk accepted")
	}
	// Faulting memory.
	bm := &boundedMemory{size: 16, data: map[uint64]uint64{}}
	st = &RefState{}
	if err := RefStep(MustAssemble("load r1, [r2+4096]\nhalt"), st, bm); err == nil {
		t.Error("faulting load accepted")
	}
	st = &RefState{}
	if err := RefStep(MustAssemble("store [r2+4096], r1\nhalt"), st, bm); err == nil {
		t.Error("faulting store accepted")
	}
	st = &RefState{}
	if err := RefStep(MustAssemble("accel [r2+4096]\nhalt"), st, bm); err == nil {
		t.Error("faulting accel accepted")
	}
	// Call pushing outside memory.
	st = &RefState{}
	st.Regs[SP] = 12
	if err := RefStep(MustAssemble("call f\nf: ret"), st, bm); err == nil {
		t.Error("faulting call accepted")
	}
}

func TestMustDecodeAndMustAssemblePanic(t *testing.T) {
	img := Encode(MustAssemble("halt"))
	if MustDecode(img) == nil {
		t.Fatal("MustDecode returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDecode of garbage should panic")
		}
	}()
	MustDecode(&Image{Words: []uint64{uint64(200) << 56}})
}

func TestInstrString(t *testing.T) {
	cases := []Instr{
		{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpMovI, Rd: 1, Imm: -5},
		{Op: OpMov, Rd: 1, Rs1: 2},
		{Op: OpLoad, Rd: 1, Rs1: 2, Imm: 8},
		{Op: OpStore, Rs1: 2, Rs2: 3, Imm: -8},
		{Op: OpPrefetch, Rs1: 4},
		{Op: OpCheck, Rs1: 4, Imm: 16},
		{Op: OpAccel, Rs1: 4},
		{Op: OpAccWait, Rd: 5},
		{Op: OpCmp, Rs1: 1, Rs2: 2},
		{Op: OpCmpI, Rs1: 1, Imm: 3},
		{Op: OpJmp, Imm: 0},
		{Op: OpCall, Imm: 0},
		{Op: OpYield, Imm: int64(AllRegs)},
		{Op: OpCYield, Imm: 3},
		{Op: OpRet},
		{Op: OpHalt},
		{Op: OpNop},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Errorf("empty String for %v op", in.Op)
		}
	}
	if Op(250).String() == "" || Op(250).Kind() != KindNop {
		t.Error("invalid op rendering wrong")
	}
}
