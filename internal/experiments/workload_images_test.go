package experiments_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// workloadImages pins the SHA-256 of what each spec composes at the
// default machine's size and seed: every allocated memory word, then
// each instance's registers, expected result and stack top. A builder
// rewrite that draws its randomness in another order, or lays a node out
// differently, changes a digest here before it moves any golden table.
var workloadImages = map[string]string{
	"accelstream": "a829668027665df63be40187153babb44a323e5231fc1a32dc987a562c8b77ba",
	"binsearch":   "9d88ff20e91f6b3514c1046faf494c94109bdf7c80b97d75584d23942e0404fc",
	"bst":         "b1c620569c8325389c2d54b4a648ca28c29cf0fbc47c3d71cb7957137e393391",
	"btree":       "87c7f50e05c8693e4f48e6ba19a0af229d0641727f9693cad87ae7d4cbedbbb5",
	"chase":       "a2077f3f92ac549626722a6f9607ae17c87addb35de372399c638f700106c282",
	"compute":     "52c8f2b677e8908ab01be15e8ccbe69eabf22f58dde541af4fe593ea551c63c2",
	"hashjoin":    "08c3af2ec58896200ddf8d6214787f4dfa785f3f6132acb1382831893bb1e247",
	"mixedchase":  "4cd051afb4a6ad13664321f23894eda1316e3e7a6bf64a274de13a4fb797a801",
	"multichase":  "9ac63850efce5dfefdc2a6388c4129b4037c64ace7b35281750ba2e227e0fa2c",
	"scan":        "0c0760386b7e59963692cdabb972bd746ac9ebc49be4686de214ab915bc506e0",
	"scatter":     "9259d7abd09e25bae79fbc44b9c6c5caff2ff808be2b3b407448937d7dc72d04",
	"skiplist":    "9ded34cdafc72bf5e8850fec0c5696f44ed8013c55eab7f66ad45dc7226be50a",
	"padchase":    "df5e3f8214b628dc6b7c9f143f12ee24b4b6f21bb4b70b8dc25ecf3c4ab41ecc",
	"unrolled":    "5594cc1baddd09a937789b149bf791b1628478144bac750d6fa3bb9fc9ad70dd",
	"inline":      "d47cf9f2a07da7c44e51d364dfebacc95168323962284bb16880bc7f477d0d5c",
}

func TestWorkloadImagesFixed(t *testing.T) {
	specs := []workloads.Spec{
		workloads.PaddedChase{Nodes: 1024, Hops: 300, Pad: 5, Instances: 3},
		workloads.UnrolledCompute{BlockInstrs: 16, Iters: 40, Instances: 3},
		experiments.E13Chase,
	}
	for _, name := range cli.Names() {
		spec, err := cli.SpecByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if len(specs) != len(workloadImages) {
		t.Errorf("%d specs, %d pinned digests", len(specs), len(workloadImages))
	}
	mach := core.DefaultMachine()
	for _, spec := range specs {
		sc, err := workloads.Compose(mach.MemBytes, mach.Seed, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		h := sha256.New()
		// The word at 0 is the reserved null page, never written.
		for a := uint64(8); a < sc.Mem.Brk(); a += 8 {
			word(h, sc.Mem.MustRead64(a))
		}
		for _, p := range sc.Parts {
			for i, in := range p.Instances {
				for _, r := range in.Regs {
					word(h, r)
				}
				word(h, in.Expected)
				word(h, p.StackTops[i])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != workloadImages[spec.Name()] {
			t.Errorf("%s composes image %s, pinned %q", spec.Name(), got, workloadImages[spec.Name()])
		}
	}
}

func word(h hash.Hash, v uint64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, v))
}
