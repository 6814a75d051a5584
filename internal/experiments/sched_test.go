package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// schedImage is an instrumented pointer chase (requests) and an
// instrumented compute loop (batch work with scavenger-phase yields).
const schedImage = `
    chase:
        prefetch [r1]
        yield 0x800a
        load r1, [r1]
        addi r3, r3, -1
        cmpi r3, 0
        jgt chase
        halt
    batch:
        addi r5, r5, 1
        cyield 0x8030
        addi r4, r4, -1
        cmpi r4, 0
        jgt batch
        mov r1, r5
        halt
`

func schedCaches() mem.Config {
	c := mem.DefaultConfig()
	c.L1Size = 256
	c.L1Ways = 1
	c.L2Size = 1 << 10
	c.L2Ways = 2
	c.L3Size = 4 << 10
	c.L3Ways = 4
	return c
}

func schedChain(m *mem.Memory, n int, seed int64) uint64 {
	base := m.Alloc(uint64(n)*64, 64)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		m.MustWrite64(base+uint64(perm[i])*64, base+uint64(perm[(i+1)%n])*64)
	}
	return base + uint64(perm[0])*64
}

// runSched builds a fresh machine with nReq chase requests and nBatch
// compute tasks, runs them under policy, and checks that every request
// completed with a recorded latency.
func runSched(t *testing.T, policy string, nReq, nBatch int, batchIters uint64) exec.Stats {
	t.Helper()
	prog := isa.MustAssemble(schedImage)
	m := mem.NewMemory(4 << 20)
	core := cpu.MustNewCore(cpu.DefaultConfig(), prog, m, mem.MustNewHierarchy(schedCaches()))
	ex := exec.New(core, exec.DefaultConfig())
	var reqs, batch []*exec.Task
	for i := 0; i < nReq; i++ {
		ctx := coro.NewContext(i, prog.Symbols["chase"], m.Size()-uint64(i+1)*2048)
		ctx.Regs[1] = schedChain(m, 128, int64(i+1))
		ctx.Regs[3] = 150
		reqs = append(reqs, exec.NewTask(ctx, coro.Primary))
	}
	for i := 0; i < nBatch; i++ {
		ctx := coro.NewContext(100+i, prog.Symbols["batch"], m.Size()-uint64(nReq+i+1)*2048)
		ctx.Regs[4] = batchIters
		batch = append(batch, exec.NewTask(ctx, coro.Scavenger))
	}
	st, err := runPolicy(ex, policy, reqs, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if !r.Ctx.Halted {
			t.Fatalf("%s: request %d did not complete", policy, i)
		}
		if st.Latencies[i] == 0 {
			t.Fatalf("%s: request %d latency not recorded", policy, i)
		}
	}
	return st
}

func meanLatency(st exec.Stats) float64 {
	var sum uint64
	for _, l := range st.Latencies {
		sum += l
	}
	return float64(sum) / float64(len(st.Latencies))
}

func TestPoliciesCompleteAllRequests(t *testing.T) {
	for _, p := range []string{"agnostic", "sidecar", "event-aware"} {
		st := runSched(t, p, 3, 2, 20000)
		if st.Cycles == 0 || meanLatency(st) == 0 {
			t.Errorf("%s: empty stats", p)
		}
	}
}

func TestSidecarBeatsAgnosticLatency(t *testing.T) {
	// Under the agnostic policy requests round-robin with batch work at
	// every yield; under sidecar they run FIFO with batch only filling
	// their miss shadows. Batch work is sized so the agnostic queueing
	// penalty is visible.
	agnostic := runSched(t, "agnostic", 2, 2, 30000)
	sidecar := runSched(t, "sidecar", 2, 2, 30000)
	if meanLatency(sidecar) >= meanLatency(agnostic) {
		t.Errorf("sidecar mean latency %.0f should beat agnostic %.0f",
			meanLatency(sidecar), meanLatency(agnostic))
	}
}

func TestEventAwareCoSchedulesRequests(t *testing.T) {
	// With several requests queued and no batch work, sidecar leaves miss
	// shadows empty while event-aware fills them with pending requests.
	sidecar := runSched(t, "sidecar", 4, 0, 0)
	aware := runSched(t, "event-aware", 4, 0, 0)
	if aware.Cycles >= sidecar.Cycles {
		t.Errorf("event-aware total %d should beat sidecar %d (requests hide each other)",
			aware.Cycles, sidecar.Cycles)
	}
	if meanLatency(aware) >= meanLatency(sidecar) {
		t.Errorf("event-aware mean latency %.0f should beat sidecar %.0f",
			meanLatency(aware), meanLatency(sidecar))
	}
}
