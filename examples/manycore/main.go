// Many-core example: the whole machine in one deterministic run.
//
// Each simulated core owns a private L1/L2 and advances on its own
// goroutine; all cores share a banked LLC + DRAM with bandwidth/MSHR
// contention. The cycle-quantum kernel barriers the cores every few
// thousand cycles and commits shared-LLC traffic in core-index order,
// so every number printed here is byte-identical across runs and
// GOMAXPROCS settings — parallel simulation without losing the
// reproducibility the single-core engine guarantees.
//
// The sweep below scales a memory-bound pointer chase from 1 to 8
// cores. Aggregate throughput grows with the core count while the
// shared-LLC counters show the contention the private-hierarchy model
// cannot: queued bank accesses and DRAM-side MSHR pressure.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Println("many-core scaling: pointer chase on 1..8 cores over a shared LLC")
	fmt.Printf("\n%6s %14s %14s %12s %12s %12s\n",
		"cores", "cycles", "retired", "retired/cyc", "llc misses", "llc queued")

	for _, cores := range []int{1, 2, 4, 8} {
		topo := repro.DefaultTopology(cores)
		s, err := repro.NewSession(repro.WithTopology(topo))
		if err != nil {
			log.Fatal(err)
		}
		st, err := s.RunMachine(repro.MachineRun{
			Spec: repro.PointerChase{Nodes: 4096, Hops: 2000, Instances: 4},
			Mode: repro.MachineSymmetric,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %14d %14d %12.4f %12d %12d\n",
			cores, st.Cycles, st.Aggregate.Retired,
			float64(st.Aggregate.Retired)/float64(st.Cycles),
			st.LLC.Misses, st.LLC.Queued)
	}

	fmt.Println("\nper-core seeds are strided, so cores chase decorrelated chains; the")
	fmt.Println("1-core row is the classic single-core engine bit-for-bit")
}
