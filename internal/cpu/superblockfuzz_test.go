package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// FuzzSuperblockVsBlock is the fuzzing face of
// TestSuperblockVsStepDifferential: any seed must produce byte-identical
// behaviour between the superblock trace tier and per-instruction
// StepInto (which the block engine is separately pinned to by
// FuzzBlockVsStep, making the three-way equivalence transitive). The
// loop flag wraps the random body in a counted backward branch so the
// fuzzer exercises loop superblocks — trace re-entry, residency memos
// across iterations, lap-batched counter flushes — not just one-shot
// traces; odd seeds put a CYIELD ahead of the latch, so the trace laps
// through a yield the way an instrumented scavenger loop does. The last
// byte selects the wake horizon (horizonFromByte), and each program is
// also held to the re-entering reference (diffHorizon). The corpus seeds
// cover both program shapes, both modes, and horizons that are zero,
// mid-run and never reached.
func FuzzSuperblockVsBlock(f *testing.F) {
	f.Add(int64(1), uint8(20), false, uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(80), false, uint8(0), true, uint8(0))
	f.Add(int64(3), uint8(40), true, uint8(4), true, uint8(12))
	f.Add(int64(4), uint8(90), true, uint8(1), false, uint8(0))
	f.Add(int64(5), uint8(30), false, uint8(0), true, uint8(255))
	f.Add(int64(7), uint8(45), false, uint8(5), true, uint8(30))
	f.Add(int64(8), uint8(70), false, uint8(0), false, uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, block bool, budget uint8, loop bool, horizon uint8) {
		n := 5 + int(size)%86 // program length in [5, 90]
		rng := rand.New(rand.NewSource(seed))
		var b uint64
		if block {
			b = 1 + uint64(budget)%16
		}
		hz := horizonFromByte(horizon)
		var prog *isa.Program
		label := "fuzz"
		if loop {
			prog, label = randLoopProgram(rng, n, int64(2+seed%5), 4096, seed&1 == 1), "fuzz-loop"
		} else {
			prog = randRunnableProgram(rng, n, 4096)
		}
		diffSuperProgram(t, label, prog, rng, block, b, hz)
		diffHorizon(t, label+"-horizon", prog, rng, true, block, uint64(budget)%16, hz)
	})
}
