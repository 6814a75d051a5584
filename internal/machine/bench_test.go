package machine

import (
	"testing"
	"time"

	"repro/internal/workloads"
)

// BenchmarkSymmetricChase times the quantum kernel's memory path in
// isolation: four cores, each interleaving four symmetric PointerChase
// instances over 8192-node chains, contending for the shared LLC — the
// chase phase of the benchmark's machine-chase workload at a tenth of
// its hops, without the ALU phase. Nearly every hop misses L2, so
// ns/access prices one simulated load through the private hierarchy,
// the LLC log and the host's own memory. Building the machine is
// outside the timer; the run's validation against the host reference
// is inside it.
func BenchmarkSymmetricChase(b *testing.B) {
	topo := DefaultTopology(4)
	topo.Machine.MemBytes = 32 << 20
	rc := RunConfig{Spec: workloads.PointerChase{Nodes: 8192, Hops: 30000, Instances: 4}, Mode: ModeSymmetric}
	var accesses uint64
	var elapsed time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		m, err := New(topo, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		st, err := m.Run()
		elapsed += time.Since(start)
		m.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, cs := range st.Cores {
			accesses += cs.Mem.Total()
		}
	}
	if accesses > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(accesses), "ns/access")
	}
}
