package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// FuzzSuperblockVsBlock is the fuzzing face of
// TestSuperblockVsStepDifferential: any seed must produce byte-identical
// behaviour between the superblock trace tier and the per-instruction
// scalar dispatch (tierScalar, which the block engine is separately
// pinned to by FuzzBlockVsScalar, making the three-way equivalence
// transitive). shape
// picks the program: 0 a straight-line one; 1 the same body wrapped in a
// counted backward branch, so the fuzzer exercises loop superblocks —
// trace re-entry, resident memory steps across iterations, lap-batched
// counter flushes — not just one-shot traces; 2 a counting loop (randCountingLoop)
// a few thousand to tens of thousands of laps long, whose laps the tier
// retires in closed form wherever fuel, budget and horizon leave it room;
// seeds with bit 1 set draw it top-tested, leaving on an exit at its head.
// Odd seeds put a CYIELD ahead of the latch, so the trace laps through a
// yield the way an instrumented scavenger loop does. The last byte
// selects the wake horizon (horizonFromByte), and each program is also
// held to the re-entering reference (diffHorizon) — a counting loop, whose
// skips need calls longer than those two make, to the block tier and that
// reference call for call as well (lapDiff). The corpus seeds cover the
// three shapes, both modes, and horizons that are zero, mid-run and never
// reached.
func FuzzSuperblockVsBlock(f *testing.F) {
	f.Add(int64(1), uint8(20), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(80), false, uint8(0), uint8(1), uint8(0))
	f.Add(int64(3), uint8(40), true, uint8(4), uint8(1), uint8(12))
	f.Add(int64(4), uint8(90), true, uint8(1), uint8(0), uint8(0))
	f.Add(int64(5), uint8(30), false, uint8(0), uint8(1), uint8(255))
	f.Add(int64(7), uint8(45), false, uint8(5), uint8(1), uint8(30))
	f.Add(int64(8), uint8(70), false, uint8(0), uint8(0), uint8(9))
	f.Add(int64(9), uint8(3), false, uint8(0), uint8(2), uint8(255))
	f.Add(int64(10), uint8(12), true, uint8(200), uint8(2), uint8(0))
	f.Add(int64(11), uint8(60), false, uint8(90), uint8(2), uint8(140))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, block bool, budget uint8, shape uint8, horizon uint8) {
		n := 5 + int(size)%86 // program length in [5, 90]
		rng := rand.New(rand.NewSource(seed))
		var b uint64
		if block {
			b = 1 + uint64(budget)%16
		}
		hz := horizonFromByte(horizon)
		var prog *isa.Program
		label := "fuzz"
		switch shape % 3 {
		case 0:
			prog = randRunnableProgram(rng, n, 4096)
		case 1:
			prog, label = randLoopProgram(rng, n, int64(2+seed%5), 4096, seed&1 == 1), "fuzz-loop"
		case 2:
			// As many laps as the scalar reference's cap lets it walk.
			prog, label = randCountingLoop(rng, n, int64(1<<19/(n+4)), seed&1 == 1, seed&2 == 2), "fuzz-counting"
			var regs [isa.NumRegs]uint64
			for r := 0; r < 12; r++ {
				regs[r] = rng.Uint64()
			}
			newLapDiff(t, label, prog, regs, lapCosts()).run(t, lapSchedule{
				block: block, budget: uint64(budget) * 8, hz: hz,
				fuels: []uint64{uint64(1 + rng.Intn(20*n)), 0, uint64(1 + rng.Intn(n))},
				cap:   1 << 16,
			})
		}
		diffSuperProgram(t, label, prog, rng, block, b, hz)
		diffHorizon(t, label+"-horizon", prog, rng, tierSuper, block, uint64(budget)%16, hz)
	})
}
