// Package isa defines the virtual instruction set that the softhide
// simulator executes and the profile-guided instrumentation pipeline
// rewrites.
//
// The ISA is a small, word-encoded, in-order RISC: 16 general-purpose
// 64-bit registers, implicit flags set by compare instructions, absolute
// branch targets expressed as instruction indices, and four instructions
// that exist purely for the paper's mechanism — PREFETCH (start an
// asynchronous cache fill), YIELD (a primary-phase yield inserted before a
// likely cache miss), CYIELD (a conditional scavenger-phase yield that only
// fires for coroutines running in scavenger mode) and CHECK (an SFI guard).
//
// Instructions carry a 32-bit immediate. For YIELD and CYIELD the low 16
// bits of the immediate hold the live-register mask computed by the
// instrumentation pipeline: only those registers are saved across the
// switch, and the runtime deliberately poisons every other register when
// the coroutine resumes, so an unsound liveness analysis breaks programs
// instead of silently costing cycles.
package isa

import (
	"fmt"
	"strings"
)

// Reg identifies one of the 16 general-purpose registers R0..R15.
//
// Calling convention used by all bundled workloads and assumed by the
// liveness analysis:
//
//   - R1..R3 carry arguments into CALL and R1 carries the result out of RET.
//   - Every register except SP is caller-saved: a CALL may clobber R0..R14.
//   - R15 is the stack pointer (SP) and is always preserved and always live.
//   - HALT reports the value of R1 as the program result.
type Reg uint8

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// SP is the stack-pointer register.
const SP Reg = 15

// RegMask is a bitmask over the 16 registers, bit i covering Ri. It is the
// payload of YIELD/CYIELD immediates.
type RegMask uint16

// AllRegs is the mask covering every register (a full context save).
const AllRegs RegMask = 0xFFFF

// Has reports whether the mask includes register r.
func (m RegMask) Has(r Reg) bool { return m&(1<<uint(r)) != 0 }

// With returns the mask with register r added.
func (m RegMask) With(r Reg) RegMask { return m | 1<<uint(r) }

// Without returns the mask with register r removed.
func (m RegMask) Without(r Reg) RegMask { return m &^ (1 << uint(r)) }

// Count returns the number of registers in the mask.
func (m RegMask) Count() int {
	n := 0
	for v := uint16(m); v != 0; v &= v - 1 {
		n++
	}
	return n
}

func (m RegMask) String() string {
	if m == AllRegs {
		return "{all}"
	}
	s := "{"
	first := true
	for r := Reg(0); r < NumRegs; r++ {
		if m.Has(r) {
			if !first {
				s += ","
			}
			s += fmt.Sprintf("r%d", r)
			first = false
		}
	}
	return s + "}"
}

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. The zero value is NOP so that zeroed memory decodes to a benign
// instruction.
const (
	OpNop Op = iota

	// Data movement.
	OpMovI // rd = signext(imm)
	OpMov  // rd = rs1

	// Three-register ALU: rd = rs1 <op> rs2.
	OpAdd
	OpSub
	OpMul
	OpDiv // rd = rs1 / rs2 (rs2==0 yields 0, matching saturating hardware)
	OpAnd
	OpOr
	OpXor
	OpShl // rd = rs1 << (rs2 & 63)
	OpShr // rd = rs1 >> (rs2 & 63), logical

	// Register-immediate ALU: rd = rs1 <op> signext(imm).
	OpAddI
	OpMulI
	OpAndI
	OpShlI
	OpShrI

	// Memory. Addresses are rs1 + signext(imm); accesses are 8 bytes.
	OpLoad  // rd = mem[rs1+imm]
	OpStore // mem[rs1+imm] = rs2

	// Compare: set flags from rs1 - rhs (signed).
	OpCmp  // flags = cmp(rs1, rs2)
	OpCmpI // flags = cmp(rs1, signext(imm))

	// Control flow. Targets are absolute instruction indices in imm.
	OpJmp
	OpJeq
	OpJne
	OpJlt
	OpJle
	OpJgt
	OpJge
	OpCall // push return index, jump to imm
	OpRet  // pop return index

	// Event-hiding mechanism.
	OpPrefetch // start async fill of the line at rs1+imm
	OpYield    // primary yield; imm low 16 bits = live-register mask
	OpCYield   // conditional scavenger yield; imm low 16 bits = live mask

	// SFI guard: trap unless rs1+imm lies inside the sandbox region
	// configured on the executing core.
	OpCheck

	// Onboard accelerator (paper §1: "operations with onboard
	// accelerators", e.g. Intel DSA): ACCEL submits an asynchronous
	// operation over the 64-byte block at rs1+imm; ACCWAIT collects the
	// result into rd, stalling until the operation completes. At most one
	// operation is outstanding per coroutine; like a DSA completion
	// record the result is sticky, so an ACCWAIT with nothing outstanding
	// reads the previous record (initially zero) without stalling.
	OpAccel
	OpAccWait

	OpHalt // stop; R1 is the program result

	numOps // sentinel, keep last
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Kind classifies opcodes for analyses and the simulator.
type Kind uint8

// Operand/behaviour classes.
const (
	KindNop Kind = iota
	KindALU
	KindLoad
	KindStore
	KindCmp
	KindBranch // conditional or unconditional jump
	KindCall
	KindRet
	KindPrefetch
	KindYield
	KindCheck
	KindAccel
	KindAccWait
	KindHalt
)

type opInfo struct {
	name string
	kind Kind
	// operand presence, used by the assembler/disassembler
	hasRd, hasRs1, hasRs2, hasImm bool
}

var opTable = [NumOps]opInfo{
	OpNop:      {"nop", KindNop, false, false, false, false},
	OpMovI:     {"movi", KindALU, true, false, false, true},
	OpMov:      {"mov", KindALU, true, true, false, false},
	OpAdd:      {"add", KindALU, true, true, true, false},
	OpSub:      {"sub", KindALU, true, true, true, false},
	OpMul:      {"mul", KindALU, true, true, true, false},
	OpDiv:      {"div", KindALU, true, true, true, false},
	OpAnd:      {"and", KindALU, true, true, true, false},
	OpOr:       {"or", KindALU, true, true, true, false},
	OpXor:      {"xor", KindALU, true, true, true, false},
	OpShl:      {"shl", KindALU, true, true, true, false},
	OpShr:      {"shr", KindALU, true, true, true, false},
	OpAddI:     {"addi", KindALU, true, true, false, true},
	OpMulI:     {"muli", KindALU, true, true, false, true},
	OpAndI:     {"andi", KindALU, true, true, false, true},
	OpShlI:     {"shli", KindALU, true, true, false, true},
	OpShrI:     {"shri", KindALU, true, true, false, true},
	OpLoad:     {"load", KindLoad, true, true, false, true},
	OpStore:    {"store", KindStore, false, true, true, true},
	OpCmp:      {"cmp", KindCmp, false, true, true, false},
	OpCmpI:     {"cmpi", KindCmp, false, true, false, true},
	OpJmp:      {"jmp", KindBranch, false, false, false, true},
	OpJeq:      {"jeq", KindBranch, false, false, false, true},
	OpJne:      {"jne", KindBranch, false, false, false, true},
	OpJlt:      {"jlt", KindBranch, false, false, false, true},
	OpJle:      {"jle", KindBranch, false, false, false, true},
	OpJgt:      {"jgt", KindBranch, false, false, false, true},
	OpJge:      {"jge", KindBranch, false, false, false, true},
	OpCall:     {"call", KindCall, false, false, false, true},
	OpRet:      {"ret", KindRet, false, false, false, false},
	OpPrefetch: {"prefetch", KindPrefetch, false, true, false, true},
	OpYield:    {"yield", KindYield, false, false, false, true},
	OpCYield:   {"cyield", KindYield, false, false, false, true},
	OpCheck:    {"check", KindCheck, false, true, false, true},
	OpAccel:    {"accel", KindAccel, false, true, false, true},
	OpAccWait:  {"accwait", KindAccWait, true, false, false, false},
	OpHalt:     {"halt", KindHalt, false, false, false, false},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return int(op) < NumOps }

// Kind returns the behaviour class of op.
func (op Op) Kind() Kind {
	if !op.Valid() {
		return KindNop
	}
	return opTable[op].kind
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// IsBranch reports whether op transfers control via its immediate
// (conditional/unconditional jumps and calls). RET transfers control too
// but through the stack, not the immediate.
func (op Op) IsBranch() bool {
	k := op.Kind()
	return k == KindBranch || k == KindCall
}

// IsConditional reports whether op is a conditional branch.
func (op Op) IsConditional() bool {
	switch op {
	case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
		return true
	}
	return false
}

// IsYield reports whether op is YIELD or CYIELD.
func (op Op) IsYield() bool { return op == OpYield || op == OpCYield }

// Terminates reports whether control never falls through to the next
// instruction (unconditional jump, return, halt).
func (op Op) Terminates() bool {
	return op == OpJmp || op == OpRet || op == OpHalt
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	// Imm is the 32-bit immediate, sign-extended. For branches and calls
	// it is the absolute target instruction index; for YIELD/CYIELD its
	// low 16 bits are the live-register mask.
	Imm int64
}

// Target returns the branch target index for branch/call instructions.
func (in Instr) Target() int { return int(in.Imm) }

// LiveMask returns the live-register mask of a YIELD/CYIELD.
func (in Instr) LiveMask() RegMask { return RegMask(uint16(in.Imm)) }

// Uses returns the mask of registers read by the instruction, per the
// calling convention documented on Reg.
func (in Instr) Uses() RegMask {
	var m RegMask
	switch in.Op.Kind() {
	case KindALU:
		if opTable[in.Op].hasRs1 {
			m = m.With(in.Rs1)
		}
		if opTable[in.Op].hasRs2 {
			m = m.With(in.Rs2)
		}
	case KindLoad, KindPrefetch, KindCheck, KindAccel:
		m = m.With(in.Rs1)
	case KindStore:
		m = m.With(in.Rs1).With(in.Rs2)
	case KindCmp:
		m = m.With(in.Rs1)
		if in.Op == OpCmp {
			m = m.With(in.Rs2)
		}
	case KindCall:
		// Arguments travel in R1..R3; the call also reads SP to push the
		// return address.
		m = m.With(1).With(2).With(3).With(SP)
	case KindRet:
		// RET reads the result register and SP to pop.
		m = m.With(1).With(SP)
	case KindHalt:
		// HALT reports R1 as the program result.
		m = m.With(1)
	}
	return m
}

// Defs returns the mask of registers written by the instruction.
func (in Instr) Defs() RegMask {
	var m RegMask
	switch in.Op.Kind() {
	case KindALU, KindLoad, KindAccWait:
		m = m.With(in.Rd)
	case KindCall:
		// Everything except SP is caller-saved: the callee may clobber
		// R0..R14. SP is adjusted but restored by the matching RET; we
		// model it as both used and preserved.
		m = AllRegs.Without(SP)
	}
	return m
}

func (in Instr) String() string {
	info := opTable[in.Op]
	s := info.name
	switch in.Op.Kind() {
	case KindALU:
		switch {
		case info.hasRs2:
			s += fmt.Sprintf(" r%d, r%d, r%d", in.Rd, in.Rs1, in.Rs2)
		case info.hasRs1 && info.hasImm:
			s += fmt.Sprintf(" r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
		case info.hasRs1:
			s += fmt.Sprintf(" r%d, r%d", in.Rd, in.Rs1)
		default:
			s += fmt.Sprintf(" r%d, %d", in.Rd, in.Imm)
		}
	case KindLoad:
		s += fmt.Sprintf(" r%d, [r%d%+d]", in.Rd, in.Rs1, in.Imm)
	case KindStore:
		s += fmt.Sprintf(" [r%d%+d], r%d", in.Rs1, in.Imm, in.Rs2)
	case KindPrefetch, KindCheck, KindAccel:
		s += fmt.Sprintf(" [r%d%+d]", in.Rs1, in.Imm)
	case KindAccWait:
		s += fmt.Sprintf(" r%d", in.Rd)
	case KindCmp:
		if in.Op == OpCmp {
			s += fmt.Sprintf(" r%d, r%d", in.Rs1, in.Rs2)
		} else {
			s += fmt.Sprintf(" r%d, %d", in.Rs1, in.Imm)
		}
	case KindBranch, KindCall:
		s += fmt.Sprintf(" %d", in.Imm)
	case KindYield:
		s += " " + in.LiveMask().String()
	}
	return s
}

// Program is a decoded instruction sequence with an optional symbol table
// mapping labels to instruction indices.
type Program struct {
	Instrs  []Instr
	Symbols map[string]int
}

// Entries returns the program's entry points by part: each
// "<part>.main" symbol under its part's name, and a bare "main" (an
// uncomposed program's entry) under "".
func (p *Program) Entries() map[string]int {
	out := map[string]int{}
	for name, idx := range p.Symbols {
		if part, ok := strings.CutSuffix(name, ".main"); ok {
			out[part] = idx
		} else if name == "main" {
			out[""] = idx
		}
	}
	return out
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := &Program{Instrs: make([]Instr, len(p.Instrs))}
	copy(q.Instrs, p.Instrs)
	if p.Symbols != nil {
		q.Symbols = make(map[string]int, len(p.Symbols))
		for k, v := range p.Symbols {
			q.Symbols[k] = v
		}
	}
	return q
}

// Validate checks structural invariants: opcodes are defined, registers are
// in range and every branch/call target lies inside the program.
func (p *Program) Validate() error {
	n := len(p.Instrs)
	for i, in := range p.Instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: instruction %d: invalid opcode %d", i, in.Op)
		}
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return fmt.Errorf("isa: instruction %d (%s): register out of range", i, in)
		}
		if in.Op.IsBranch() {
			if t := in.Target(); t < 0 || t >= n {
				return fmt.Errorf("isa: instruction %d (%s): branch target %d outside program of %d instructions", i, in, t, n)
			}
		}
	}
	return nil
}
