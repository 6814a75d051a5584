package cpu

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

// wrapLoop is a counted loop whose body is the single access under test at
// [r2-4] with r2 = 0: address 2^64-4, in the top 8 bytes of the address
// space, where addr+8 wraps to a small number and a check written as
// `addr+8 <= limit` waves it through. The backward latch makes pc 1.. a
// superblock trace, so the same program reaches the access through the
// scalar dispatch, the block engine and a trace.
func wrapLoop(access isa.Instr) *isa.Program {
	return &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpMovI, Rd: 2, Imm: 0},
		access,
		{Op: isa.OpAddI, Rd: 12, Rs1: 12, Imm: -1},
		{Op: isa.OpCmpI, Rs1: 12, Imm: 0},
		{Op: isa.OpJgt, Imm: 1},
		{Op: isa.OpHalt},
	}}
}

// TestAddressWrapFaultsOnEveryTier pins the fix for a host panic: a load
// or store at 2^64-4 passed InBounds (addr+8 wrapped to 4) and died in the
// slice expression. It must be the ordinary simulated fault, with the
// same text and state on the scalar, block and superblock tiers.
func TestAddressWrapFaultsOnEveryTier(t *testing.T) {
	cases := []struct {
		name   string
		access isa.Instr
		want   string
	}{
		{"load", isa.Instr{Op: isa.OpLoad, Rd: 3, Rs1: 2, Imm: -4}, "mem: load fault at 0xfffffffffffffffc"},
		{"store", isa.Instr{Op: isa.OpStore, Rs1: 2, Rs2: 1, Imm: -4}, "mem: store fault at 0xfffffffffffffffc"},
	}
	for _, tc := range cases {
		prog := wrapLoop(tc.access)
		var regs [isa.NumRegs]uint64
		regs[12] = 4
		arena := make([]uint64, 8)
		const maxSteps = 100

		scalar := newEngineRig(prog, regs, arena)
		scalar.driveScalar(false, maxSteps)
		block := newEngineRig(prog, regs, arena)
		block.driveTier(tierBlock, false, 0, Horizon{}, maxSteps, rand.New(rand.NewSource(1)))
		super := newEngineRig(prog, regs, arena)
		super.driveTier(tierSuper, false, 0, Horizon{}, maxSteps, rand.New(rand.NewSource(1)))

		if scalar.err == nil || !strings.Contains(scalar.err.Error(), tc.want) {
			t.Fatalf("%s: scalar error = %v, want it to contain %q", tc.name, scalar.err, tc.want)
		}
		assertNoTraces(t, tc.name+" block", block)
		assertRigsEqual(t, tc.name+" block", scalar, block)
		assertRigsEqual(t, tc.name+" superblock", scalar, super)
	}
}

// TestCheckTrapsWrappedAddress pins the SFI side of the same wrap: the
// guard compared addr+8 against SandboxHi, so a guarded address in the top
// 8 bytes passed the sandbox on both tiers that retire OpCheck.
func TestCheckTrapsWrappedAddress(t *testing.T) {
	prog := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpMovI, Rd: 2, Imm: 0},
		{Op: isa.OpCheck, Rs1: 2, Imm: -4},
		{Op: isa.OpHalt},
	}}
	tiers := map[string]func(*engineRig){
		"scalar": func(r *engineRig) { r.driveScalar(false, 10) },
		"block":  func(r *engineRig) { r.driveTier(tierBlock, false, 0, Horizon{}, 10, rand.New(rand.NewSource(1))) },
	}
	for tier, drive := range tiers {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8))
		rig.core.Cfg.SandboxLo = 64
		rig.core.Cfg.SandboxHi = rig.m.Size()
		drive(rig)
		if rig.err == nil || !strings.Contains(rig.err.Error(), "SFI trap: 0xfffffffffffffffc") {
			t.Errorf("%s tier: err = %v, want an SFI trap", tier, rig.err)
		}
	}
}
