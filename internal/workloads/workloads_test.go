package workloads

import (
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// runScenario executes every instance of every part solo and checks the
// architectural result against the host reference.
func runScenario(t *testing.T, sc *Scenario) {
	t.Helper()
	h := mem.MustNewHierarchy(mem.DefaultConfig())
	core := cpu.MustNewCore(cpu.DefaultConfig(), sc.Prog, sc.Mem, h)
	id := 0
	for _, part := range sc.Parts {
		for i, inst := range part.Instances {
			ctx := coro.NewContext(id, part.Entry, part.StackTops[i])
			id++
			ctx.Regs = inst.Regs
			ctx.Regs[15] = part.StackTops[i]
			const maxSteps = 20_000_000
			var r cpu.BlockResult
			for used := uint64(0); !r.Halted; used += r.Steps {
				if used >= maxSteps {
					t.Fatalf("%s[%d]: did not halt", part.Name, i)
				}
				if err := core.RunBlock(ctx, false, maxSteps-used, 0, cpu.Horizon{}, &r); err != nil {
					t.Fatalf("%s[%d]: %v", part.Name, i, err)
				}
			}
			if ctx.Result != inst.Expected {
				t.Errorf("%s[%d]: result %d, want %d", part.Name, i, ctx.Result, inst.Expected)
			}
		}
	}
}

func TestPointerChaseMatchesReference(t *testing.T) {
	sc, err := Compose(8<<20, 1, PointerChase{Nodes: 512, Hops: 2000, Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestComputeMatchesReference(t *testing.T) {
	sc, err := Compose(1<<20, 2, Compute{Iters: 1000, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestArrayScanMatchesReference(t *testing.T) {
	sc, err := Compose(8<<20, 3, ArrayScan{N: 4096, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestHashJoinMatchesReference(t *testing.T) {
	sc, err := Compose(32<<20, 4, HashJoin{
		BuildRows: 2000, Buckets: 1024, Probes: 500, MatchFraction: 0.7, Instances: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
	// Sanity: expected sums are nonzero (matches actually happen).
	for _, in := range sc.Parts[0].Instances {
		if in.Expected == 0 {
			t.Error("hash join expected sum is zero — no matches?")
		}
	}
}

func TestBinarySearchMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 5, BinarySearch{N: 8192, Lookups: 300, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestBSTMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 6, BST{Keys: 2000, Lookups: 300, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestComposeLinksMultipleWorkloads(t *testing.T) {
	sc, err := Compose(32<<20, 7,
		HashJoin{BuildRows: 500, Buckets: 256, Probes: 100, MatchFraction: 0.5, Instances: 1},
		PointerChase{Nodes: 128, Hops: 200, Instances: 2},
		Compute{Iters: 500, Instances: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Parts) != 3 {
		t.Fatalf("parts = %d", len(sc.Parts))
	}
	// Entries are distinct and ordered.
	if !(sc.Parts[0].Entry < sc.Parts[1].Entry && sc.Parts[1].Entry < sc.Parts[2].Entry) {
		t.Errorf("entries not ordered: %d %d %d", sc.Parts[0].Entry, sc.Parts[1].Entry, sc.Parts[2].Entry)
	}
	if sc.Part("chase") == nil || sc.Part("nope") != nil {
		t.Error("Part lookup wrong")
	}
	// Linked branches stay inside the program (Validate enforced), and
	// all results still match references after relocation.
	runScenario(t, sc)
}

func TestComposeDeterminism(t *testing.T) {
	build := func() *Scenario {
		sc, err := Compose(8<<20, 42, PointerChase{Nodes: 64, Hops: 100, Instances: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	a, b := build(), build()
	if a.Parts[0].Instances[0].Expected != b.Parts[0].Instances[0].Expected {
		t.Error("same seed must give identical scenarios")
	}
	if a.Parts[0].Instances[0].Regs != b.Parts[0].Instances[0].Regs {
		t.Error("initial registers differ across identical builds")
	}
}

func TestSpecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	bad := []Spec{
		PointerChase{Nodes: 1, Hops: 1, Instances: 1},
		PointerChase{Nodes: 8, Hops: 0, Instances: 1},
		Compute{Iters: 0, Instances: 1},
		ArrayScan{N: 0, Instances: 1},
		HashJoin{BuildRows: 10, Buckets: 100, Probes: 10, Instances: 1}, // non-power-of-2
		HashJoin{BuildRows: 10, Buckets: 16, Probes: 10, MatchFraction: 2, Instances: 1},
		BinarySearch{N: 0, Lookups: 1, Instances: 1},
		BST{Keys: 0, Lookups: 1, Instances: 1},
	}
	for _, s := range bad {
		if _, err := s.Build(m, rng); err == nil {
			t.Errorf("%T should reject its config", s)
		}
	}
	if _, err := Compose(1<<20, 1); err == nil {
		t.Error("Compose with no specs should fail")
	}
}

func TestComposeOutOfMemoryIsError(t *testing.T) {
	_, err := Compose(1<<16, 1, PointerChase{Nodes: 1 << 20, Hops: 1, Instances: 1})
	if err == nil {
		t.Error("allocator exhaustion should surface as an error, not a panic")
	}
}

func TestMultiChaseMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 8, MultiChase{Nodes: 256, Hops: 500, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestMultiChaseValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	if _, err := (MultiChase{Nodes: 1, Hops: 1, Instances: 1}).Build(m, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSkipListMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 9, SkipList{Keys: 2000, Lookups: 300, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
	for _, in := range sc.Parts[0].Instances {
		if in.Expected == 0 {
			t.Error("skip list found nothing — links broken?")
		}
	}
}

func TestSkipListValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	if _, err := (SkipList{Keys: 0, Lookups: 1, Instances: 1}).Build(m, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMixedChaseMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 10, MixedChase{ColdNodes: 512, HotNodes: 16, Hops: 800, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestUnrolledComputeMatchesReference(t *testing.T) {
	sc, err := Compose(4<<20, 11, UnrolledCompute{BlockInstrs: 200, Iters: 50, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestPaddedChaseMatchesReference(t *testing.T) {
	sc, err := Compose(8<<20, 12, PaddedChase{Nodes: 256, Hops: 400, Pad: 5, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
}

func TestAccelStreamMatchesReference(t *testing.T) {
	sc, err := Compose(8<<20, 13, AccelStream{Blocks: 300, Pad: 5, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
	for _, in := range sc.Parts[0].Instances {
		if in.Expected == 0 {
			t.Error("accelerator checksum is zero")
		}
	}
}

func TestAccelStreamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	if _, err := (AccelStream{Blocks: 0, Pad: 1, Instances: 1}).Build(m, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestScatterMatchesReference(t *testing.T) {
	sc, err := Compose(16<<20, 14, Scatter{Slots: 1024, Updates: 2000, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
	for _, in := range sc.Parts[0].Instances {
		if in.Expected == 0 {
			t.Error("scatter checksum is zero")
		}
	}
}

func TestScatterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	if _, err := (Scatter{Slots: 1000, Updates: 1, Instances: 1}).Build(m, rng); err == nil {
		t.Error("non-power-of-two slots accepted")
	}
	if _, err := (Scatter{Slots: 16, Updates: 0, Instances: 1}).Build(m, rng); err == nil {
		t.Error("zero updates accepted")
	}
}

func TestBTreeMatchesReference(t *testing.T) {
	sc, err := Compose(32<<20, 15, BTree{Keys: 5000, Lookups: 400, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, sc)
	for _, in := range sc.Parts[0].Instances {
		if in.Expected == 0 {
			t.Error("btree found nothing")
		}
	}
}

func TestBTreeSmallTrees(t *testing.T) {
	// Single-leaf and two-level trees exercise the degenerate shapes.
	for _, keys := range []int{1, 3, 7, 8, 50} {
		sc, err := Compose(8<<20, int64(20+keys), BTree{Keys: keys, Lookups: 60, Instances: 1})
		if err != nil {
			t.Fatalf("keys=%d: %v", keys, err)
		}
		runScenario(t, sc)
	}
}

func TestBTreeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mem.NewMemory(1 << 20)
	if _, err := (BTree{Keys: 0, Lookups: 1, Instances: 1}).Build(m, rng); err == nil {
		t.Error("bad config accepted")
	}
}
