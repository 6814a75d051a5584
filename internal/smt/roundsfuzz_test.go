package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
)

// FuzzRoundsVsPerSlice is the fuzzing face of
// TestRoundsMatchPerSliceReference: any seed draws a scenario
// (drawRoundScenario) — counting loops, top-tested where top's bits say
// so, and chasers, started anywhere in their laps — that must end
// identical with whole rounds skipped and on the per-slice reference, the
// core with its traces cleared, under both sources, unsliced and cut.
// First, cpu.Core.QuietLaps, which every skip relies on, is asked from
// every pc of every loop's lap, against flags of each sign and counters a
// few laps from the loop's end (quietLapsFromEveryPC). The corpus seeds
// cover both shapes, alone and mixed.
func FuzzRoundsVsPerSlice(f *testing.F) {
	for seed, top := range []uint8{0, 1, 7, 2, 5, 0, 3, 6} {
		f.Add(int64(seed), top)
	}
	f.Fuzz(func(t *testing.T, seed int64, top uint8) {
		s := drawRoundScenario(rand.New(rand.NewSource(seed)), top)
		s.quietLapsFromEveryPC(t)
		s.check(t, fmt.Sprintf("seed %d, top %#x", seed, top), seed)
	})
}

// quietLapsFromEveryPC holds QuietLaps, on the scenario's core with its
// traces, to a walk of the program: from each pc of each lap, with r3
// trips laps from the loop's end and every flags value, a loop that never
// yields and has a summary (any latch or exit but jeq and jne) must
// report its lap's cost and length and exactly the executions of its
// deciding branch that go round again before one leaves; every other
// loop must report cost 0.
func (s *roundScenario) quietLapsFromEveryPC(t *testing.T) {
	t.Helper()
	core, _, _, _ := s.machine(true)
	prog := core.Prog
	for i, l := range s.loops {
		head := 0
		for _, prev := range s.loops[:i] {
			head += prev.lapLen() + 2
		}
		quiet := !l.yield && l.repeats() != isa.OpJne && l.repeats() != isa.OpJeq
		for at := 0; at < l.lapLen(); at++ {
			for _, trips := range []int64{0, 1, 2, 5, 40} {
				for flags := -1; flags <= 1; flags++ {
					ctx := &coro.Context{PC: head + at, Flags: flags}
					ctx.Regs[3] = uint64(l.counter(trips))
					cost, instrs, taken := core.QuietLaps(ctx)
					if !quiet {
						if cost != 0 {
							t.Fatalf("loop %+v at +%d: lap cost %d, want 0", l, at, cost)
						}
						continue
					}
					const limit = 1 << 8
					walked := walkLaps(prog, head, l.lapLen(), ctx, limit)
					if cost != l.lapCost(s.cost) || instrs != uint64(l.lapLen()) ||
						(walked < limit && taken != walked) || (walked == limit && taken < limit) {
						t.Fatalf("loop %+v at +%d, r3 %d, flags %d: QuietLaps = cost %d, instrs %d, %d go round; want %d, %d, %d (walked, at most %d)",
							l, at, int64(ctx.Regs[3]), flags, cost, instrs, taken, l.lapCost(s.cost), l.lapLen(), walked, limit)
					}
				}
			}
		}
	}
}

// walkLaps interprets a counting loop's lap [head, head+lapLen) from
// ctx's pc, registers and flags, and counts the branches that keep it in
// the lap — taken latches, fall-through exits — before the first that
// leaves, or limit.
func walkLaps(prog *isa.Program, head, lapLen int, ctx *coro.Context, limit uint64) uint64 {
	regs, flags := ctx.Regs, ctx.Flags
	var n uint64
	for pc := ctx.PC; n < limit; {
		in := &prog.Instrs[pc]
		next := pc + 1
		switch op := in.Op; {
		case op == isa.OpAddI:
			regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
		case op == isa.OpCmpI:
			flags = 0
			if v := int64(regs[in.Rs1]); v < in.Imm {
				flags = -1
			} else if v > in.Imm {
				flags = 1
			}
		case op == isa.OpJmp:
			next = int(in.Imm)
		case op.IsConditional():
			if holds(op, flags) {
				next = int(in.Imm)
			}
			if next < head || next >= head+lapLen {
				return n
			}
			n++
		}
		pc = next
	}
	return n
}

// holds reports whether a conditional branch is taken under flags.
func holds(op isa.Op, flags int) bool {
	switch op {
	case isa.OpJeq:
		return flags == 0
	case isa.OpJne:
		return flags != 0
	case isa.OpJlt:
		return flags < 0
	case isa.OpJle:
		return flags <= 0
	case isa.OpJgt:
		return flags > 0
	}
	return flags >= 0 // OpJge
}
