package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// FuzzBlockVsScalar is the fuzzing face of TestBlockVsStepDifferential:
// any seed must produce byte-identical behaviour between the block
// engine and the per-instruction scalar dispatch (tierScalar: no fused
// segments, no traces), in both coroutine and SMT (block) mode — and, on
// both, under the wake horizon the last byte selects (horizonFromByte),
// between one call that runs on past dormant conditional yields and the
// calls a loop returning at each would make. The event arm holds the
// stream an observer receives on the block and superblock tiers to the
// scalar dispatch's, event for event (diffEvents). counting swaps the
// straight-line program for a counting loop (randCountingLoop) thousands
// of laps long, top-tested for seeds with bit 1 set: the block engine is the oracle the superblock tier's
// closed-form laps are held to, so it is itself held to the scalar
// dispatch on that shape. Every tier shares one ALU routine and one memory
// step, so comparing tiers cannot catch a defect in those; the reference
// arm holds every tier to the independent isa.RefRun (diffAgainstReference)
// as well. The corpus seeds cover both modes, a spread of program sizes,
// both shapes, and horizons that are zero, mid-run and never reached; the
// fuzzer explores the seed space from there.
func FuzzBlockVsScalar(f *testing.F) {
	f.Add(int64(1), uint8(20), false, uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(80), false, uint8(0), uint8(6), false)
	f.Add(int64(3), uint8(40), true, uint8(4), uint8(0), false)
	f.Add(int64(4), uint8(90), true, uint8(1), uint8(19), false)
	f.Add(int64(5), uint8(60), false, uint8(9), uint8(255), false)
	f.Add(int64(6), uint8(85), false, uint8(3), uint8(40), false)
	f.Add(int64(7), uint8(2), false, uint8(0), uint8(255), true)
	f.Add(int64(8), uint8(30), true, uint8(7), uint8(100), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, block bool, budget, horizon uint8, counting bool) {
		n := 5 + int(size)%86 // program length in [5, 90]
		rng := rand.New(rand.NewSource(seed))
		var prog *isa.Program
		if counting {
			prog = randCountingLoop(rng, n, int64(1<<19/(n+4)), seed&1 == 1, seed&2 == 2)
		} else {
			prog = randRunnableProgram(rng, n, 4096)
		}
		var b uint64
		if block {
			b = 1 + uint64(budget)%16
		}
		hz := horizonFromByte(horizon)
		diffOneProgram(t, "fuzz", prog, rng, block, b, hz)
		diffHorizon(t, "fuzz-horizon", prog, rng, tierBlock, block, uint64(budget)%16, hz)
		diffHorizon(t, "fuzz-scalar-horizon", prog, rng, tierScalar, block, uint64(budget)%16, hz)
		diffHorizon(t, "fuzz-observed-horizon", prog, rng, tierObserved, block, uint64(budget)%16, hz)
		diffEvents(t, "fuzz-events", prog, rng, block, b, hz)
		initRegs, arena := randInitState(rng)
		diffAgainstReference(t, "fuzz-reference", prog, initRegs, arena, rng)
	})
}
