// Package machine simulates a many-core machine: each simulated core
// owns a cpu.Core with private L1/L2, all cores share a banked L3 +
// DRAM with bandwidth/MSHR contention (mem.SharedLLC), and a
// cycle-quantum kernel (Kernel, which the open-loop service dispatcher
// steps its cores through too) advances every core inside
// deterministic quanta.
//
// # Determinism
//
// The kernel is a bound-weave simulator (ZSim-style): within a quantum
// every core advances independently against a frozen snapshot of the
// shared-LLC tag state, logging its LLC traffic; at the quantum barrier
// the logs commit in fixed core-index order. Cores never observe each
// other mid-quantum, so the simulation result — per-core stats, the
// shared metrics registry and trace included — is a pure function of
// the topology and seed, byte-identical at any GOMAXPROCS.
package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// CoreSeedStride separates per-core workload seeds: core i builds its
// scenario with seed Machine.Seed + i*CoreSeedStride, so core 0 of a
// 1-core topology reproduces the single-core engine exactly while other
// cores get decorrelated data layouts. The stride is a prime far from
// the experiment sweep's seed stride (runner.SeedStride) so sweep seeds
// and core seeds never collide.
const CoreSeedStride = 100003

// DefaultQuantum is the cycle-quantum length: long enough to amortize
// the barrier's per-core resume and LLC commit, short enough that the
// one-quantum contention lag stays well under a DRAM round trip's worth
// of drift per synchronization epoch.
const DefaultQuantum = 4096

// MaxQuantum bounds Topology.Quantum. Barrier deadlines are sums of
// quanta and exec.NoDeadline is the all-ones cycle, so a quantum near
// 2^64 wraps the barrier clock within a barrier or two, after which
// dispatched cores never see a barrier that delivers work.
const MaxQuantum = 1 << 32

// Topology describes a many-core machine: how many cores, the per-core
// template (caches, CPU, switch costs, memory size, seed), and the
// shared LLC every core contends for.
type Topology struct {
	// Cores is the number of simulated cores.
	Cores int
	// Machine is the per-core template. Core i inherits it wholesale
	// with Seed advanced by i*CoreSeedStride. A zero template (detected
	// by MemBytes == 0) means core.DefaultMachine().
	Machine core.Machine
	// LLC configures the shared banked L3 + DRAM. The zero value means
	// mem.DefaultLLCConfig(Cores). Ignored for single-core topologies,
	// which keep the template's private three-level hierarchy so results
	// match the single-core engine bit-for-bit.
	LLC mem.LLCConfig
	// Quantum is the cycle-quantum length, at most MaxQuantum; 0 means
	// DefaultQuantum.
	Quantum uint64
}

// DefaultTopology returns a topology of cores default machines sharing
// a default LLC scaled to the core count.
func DefaultTopology(cores int) Topology {
	return Topology{
		Cores:   cores,
		Machine: core.DefaultMachine(),
		LLC:     mem.DefaultLLCConfig(cores),
		Quantum: DefaultQuantum,
	}
}

// withDefaults fills zero-value fields.
func (t Topology) withDefaults() Topology {
	if t.Machine.MemBytes == 0 {
		t.Machine = core.DefaultMachine()
	}
	if t.Cores > 1 && t.LLC == (mem.LLCConfig{}) {
		t.LLC = mem.DefaultLLCConfig(t.Cores)
	}
	if t.Quantum == 0 {
		t.Quantum = DefaultQuantum
	}
	return t
}

// Validate checks the topology (after default-filling) for structural
// problems.
func (t Topology) Validate() error {
	if err := t.ValidateShape(); err != nil {
		return err
	}
	if t.Machine.MemBytes > 1<<44 {
		// The shared LLC tags per-core lines with a core id above bit 40
		// (lines, i.e. bit 44+ of byte addresses at 16-byte lines or larger).
		return fmt.Errorf("machine: per-core memory %d exceeds the 2^44-byte LLC address budget", t.Machine.MemBytes)
	}
	return t.Machine.Mem.Validate()
}

// ValidateShape checks what every many-core layer reads of a topology —
// core count, quantum and, above one core, the shared LLC — so Validate
// and service.Config.Validate refuse the same shapes with the same
// error. A zero quantum passes on one core only, where nothing slices
// quanta.
func (t Topology) ValidateShape() error {
	if t.Cores < 1 {
		return fmt.Errorf("machine: core count %d must be at least 1", t.Cores)
	}
	if t.Quantum > MaxQuantum {
		return fmt.Errorf("machine: quantum of %d cycles exceeds the %d-cycle bound", t.Quantum, uint64(MaxQuantum))
	}
	if t.Cores == 1 {
		return nil
	}
	if t.Quantum == 0 {
		return fmt.Errorf("machine: multi-core topologies need a positive cycle quantum")
	}
	return t.LLC.Validate()
}

// CoreMachine derives core i's template: the template with its seed
// advanced by the stride. Core 0 is the template itself, so a
// 1-core topology reproduces the single-core engine exactly; layers
// that build their own per-core scenarios over a topology (the service
// dispatcher, external harnesses) must derive machines here rather
// than striding seeds themselves, so every consumer agrees on which
// data layout core i sees.
func (t Topology) CoreMachine(i int) core.Machine {
	m := t.Machine
	m.Seed += int64(i) * CoreSeedStride
	return m
}

// Mode selects the per-core execution discipline.
type Mode int

const (
	// ModeSymmetric interleaves all workload instances on each core
	// round-robin: the exec.Flat loop, as exec.RunSymmetric runs it.
	ModeSymmetric Mode = iota
	// ModeSolo runs one instance per core with no software scheduling —
	// the same loop over a ring of one, as exec.RunSolo runs it; the
	// baseline for scaling measurements.
	ModeSolo
	// ModeSMT multiplexes the instances as hardware threads: the
	// exec.SMT loop at exec.SMTSlice, as Harness.RunSMT runs it.
	ModeSMT
)

func (m Mode) String() string {
	switch m {
	case ModeSymmetric:
		return "symmetric"
	case ModeSolo:
		return "solo"
	case ModeSMT:
		return "smt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RunConfig describes what every core runs. Each core builds its own
// scenario from Spec with its strided seed, so cores execute the same
// program over decorrelated private data.
type RunConfig struct {
	// Spec is the workload every core composes and runs.
	Spec workloads.Spec
	// Mode is the per-core execution discipline.
	Mode Mode
	// Tasks caps the instances run per core (0 = all of Spec's
	// instances). ModeSolo runs exactly one, so it refuses more.
	Tasks int
	// Exec configures every core's executor; its MaxSteps is each core's
	// fuel in every mode. Its Tracer and Metrics observe the whole
	// machine at any core count: every core emits into the one Tracer,
	// each event stamped with its core index, and Run fills the one
	// registry with machine-wide totals. Cores step in core-index order
	// on the caller's goroutine, so both are deterministic. ModeSMT
	// emits no scheduling events.
	Exec exec.Config
}

func (rc RunConfig) validate() error {
	if rc.Spec == nil {
		return fmt.Errorf("machine: RunConfig.Spec must be set")
	}
	switch rc.Mode {
	case ModeSymmetric, ModeSolo, ModeSMT:
	default:
		return fmt.Errorf("machine: unknown mode %d", int(rc.Mode))
	}
	if rc.Tasks < 0 {
		return fmt.Errorf("machine: negative task count %d", rc.Tasks)
	}
	if rc.Mode == ModeSolo && rc.Tasks > 1 {
		return fmt.Errorf("machine: RunConfig.Tasks %d with RunConfig.Mode %v: a solo core runs one instance", rc.Tasks, rc.Mode)
	}
	return nil
}
