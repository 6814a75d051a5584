package repro_test

import (
	"fmt"

	"repro"
)

// Example_pipeline walks the paper's three steps on a pointer chase:
// profile in production, instrument the binary, interleave coroutines.
func Example_pipeline() {
	s, err := repro.NewSession()
	if err != nil {
		panic(err)
	}
	h, err := s.NewHarness(repro.PointerChase{Nodes: 2048, Hops: 500, Instances: 4})
	if err != nil {
		panic(err)
	}
	prof, _, err := h.Profile("chase") // §3.2 step (i)
	if err != nil {
		panic(err)
	}
	img, err := h.Instrument(prof, repro.DefaultPipelineOptions()) // step (ii)
	if err != nil {
		panic(err)
	}
	ts, err := h.Tasks(img, "chase", repro.Primary, 4)
	if err != nil {
		panic(err)
	}
	st, err := h.NewExecutor(img, repro.ExecConfig{}).RunSymmetric(ts.Tasks) // step (iii)
	if err != nil {
		panic(err)
	}
	if err := ts.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("yields inserted:", img.Pipe.Primary.Yields)
	fmt.Println("stalls hidden:", st.Efficiency() > 0.15)
	// Output:
	// yields inserted: 1
	// stalls hidden: true
}

// Example_manycore simulates a whole 4-core machine: private L1/L2 per
// core, a shared banked LLC, and the deterministic cycle-quantum
// kernel. The run is byte-identical regardless of GOMAXPROCS.
func Example_manycore() {
	topo := repro.DefaultTopology(4)
	s, err := repro.NewSession(repro.WithTopology(topo))
	if err != nil {
		panic(err)
	}
	st, err := s.RunMachine(repro.MachineRun{
		Spec: repro.PointerChase{Nodes: 1024, Hops: 400, Instances: 2},
		Mode: repro.MachineSymmetric,
	})
	if err != nil {
		panic(err)
	}
	var retired uint64
	for _, c := range st.Cores {
		retired += c.Exec.Retired
	}
	fmt.Println("cores:", len(st.Cores))
	fmt.Println("every core retired work:", retired == st.Aggregate.Retired && retired > 0)
	fmt.Println("shared LLC saw traffic:", st.LLC.Hits+st.LLC.Misses > 0)
	// Output:
	// cores: 4
	// every core retired work: true
	// shared LLC saw traffic: true
}

// Example_assembler shows the binary toolchain: assemble, encode,
// decode, disassemble.
func Example_assembler() {
	prog, err := repro.Assemble(`
        movi r1, 41
        addi r1, r1, 1
        halt
    `)
	if err != nil {
		panic(err)
	}
	back, err := repro.Decode(repro.Encode(prog))
	if err != nil {
		panic(err)
	}
	fmt.Print(repro.Disassemble(back))
	// Output:
	//     movi r1, 41
	//     addi r1, r1, 1
	//     halt
}
