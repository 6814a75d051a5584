// Package core is the top of the softhide library: the end-to-end
// profile → instrument → execute pipeline from the paper, assembled over
// the simulated machine.
//
// The flow mirrors §3.2's three logical steps:
//
//  1. Build a Harness over a workload scenario and call Profile — the
//     program runs in "production" under the PEBS/LBR sampler and the
//     samples aggregate into a profile (step i).
//  2. Call Instrument with the profile — the encoded binary is rewritten
//     with primary prefetch+yield pairs and conditional scavenger yields
//     (step ii).
//  3. Build tasks over the instrumented Image and run them under one of
//     the exec disciplines — solo, symmetric, or dual-mode asymmetric
//     concurrency (step iii).
//
// Every run can be validated against host-reference results via
// TaskSet.Validate, so experiments measure correct executions only.
package core

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// Machine bundles everything that defines the simulated platform.
type Machine struct {
	Mem      mem.Config
	CPU      cpu.Config
	Sampling pebs.Config
	Switch   coro.CostModel
	// MemBytes is the logical size of a scenario's memory image.
	MemBytes uint64
	// Seed drives all workload construction.
	Seed int64
}

// DefaultMachine returns the reference machine: the DESIGN.md server model
// with caches scaled down ~32x (latencies unchanged) so that working sets
// of a few hundred KiB exercise DRAM, keeping simulations fast.
func DefaultMachine() Machine {
	mc := mem.DefaultConfig()
	mc.L1Size = 4 << 10
	mc.L2Size = 32 << 10
	mc.L3Size = 256 << 10
	sc := pebs.DefaultConfig()
	sc.Periods[pebs.EvLoadRetired] = 31
	sc.Periods[pebs.EvLoadL2Miss] = 13
	sc.Periods[pebs.EvLoadL3Miss] = 13
	sc.Periods[pebs.EvStallCycle] = 251
	return Machine{
		Mem:      mc,
		CPU:      cpu.DefaultConfig(),
		Sampling: sc,
		Switch:   coro.DefaultCostModel(),
		MemBytes: 256 << 20,
		Seed:     20230626, // HotOS'23 week
	}
}

// CyclesPerNS is the simulated clock rate (3 GHz).
const CyclesPerNS = 3.0

// NS converts cycles to nanoseconds.
func NS(cycles float64) float64 { return cycles / CyclesPerNS }

// Harness owns one composed scenario and builds cores and executors over
// it.
type Harness struct {
	Mach Machine
	Sc   *workloads.Scenario
}

// NewHarness composes the specs on the machine.
func NewHarness(mach Machine, specs ...workloads.Spec) (*Harness, error) {
	sc, err := workloads.Compose(mach.MemBytes, mach.Seed, specs...)
	if err != nil {
		return nil, err
	}
	return &Harness{Mach: mach, Sc: sc}, nil
}

// Image is a (possibly instrumented) executable program over the
// harness's scenario, with per-part entry points remapped through any
// rewrites.
type Image struct {
	Prog    *isa.Program
	Entries map[string]int
	// Pipe carries the instrumentation report when the image came from
	// Instrument; nil otherwise.
	Pipe *instrument.PipelineResult
}

// Baseline returns the uninstrumented image.
func (h *Harness) Baseline() *Image {
	entries := map[string]int{}
	for _, p := range h.Sc.Parts {
		entries[p.Name] = p.Entry
	}
	return &Image{Prog: h.Sc.Prog, Entries: entries}
}

// FromRewrite wraps an externally rewritten program (manual annotation,
// SFI hardening) whose oldToNew mapping remaps part entries.
func (h *Harness) FromRewrite(prog *isa.Program, oldToNew []int) *Image {
	entries := map[string]int{}
	for _, p := range h.Sc.Parts {
		entries[p.Name] = oldToNew[p.Entry]
	}
	return &Image{Prog: prog, Entries: entries}
}

// Profile runs every instance of the named part solo under the machine's
// default sampler configuration and aggregates the samples into a profile.
func (h *Harness) Profile(part string) (*profile.Profile, *pebs.Sampler, error) {
	p, s, _, err := h.ProfileParts(h.Mach.Sampling, part)
	return p, s, err
}

// ProfileParts profiles several parts in one production run with an
// explicit sampler configuration. It returns the aggregated profile, the
// sampler (for overhead and drop statistics) and the core (whose
// ground-truth counters are used only for validation experiments). Every
// instance's result is checked against its host reference.
func (h *Harness) ProfileParts(cfg pebs.Config, parts ...string) (*profile.Profile, *pebs.Sampler, *cpu.Core, error) {
	core := cpu.MustNewCore(h.Mach.CPU, h.Sc.Prog, h.Sc.Mem, mem.MustNewHierarchy(h.Mach.Mem))
	sampler := pebs.NewSampler(cfg, len(h.Sc.Prog.Instrs))
	core.Observe(sampler)
	ex := exec.New(core, exec.Config{Switch: h.Mach.Switch})
	base := h.Baseline()
	for _, part := range parts {
		ts, err := h.Tasks(base, part, coro.Primary, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		for i, task := range ts.Tasks {
			if _, err := ex.RunSolo(task); err != nil {
				return nil, nil, nil, fmt.Errorf("core: profiling %s[%d]: %w", part, i, err)
			}
		}
		if err := ts.Validate(); err != nil {
			return nil, nil, nil, err
		}
	}
	return profile.Build(len(h.Sc.Prog.Instrs), sampler.Samples, sampler.LBR()), sampler, core, nil
}

// Instrument runs the full §3.2+§3.3 pipeline over the scenario binary.
func (h *Harness) Instrument(prof *profile.Profile, opts instrument.PipelineOptions) (*Image, error) {
	img, res, err := instrument.InstrumentImage(isa.Encode(h.Sc.Prog), prof, opts)
	if err != nil {
		return nil, err
	}
	prog, err := isa.Decode(img)
	if err != nil {
		return nil, err
	}
	entries := map[string]int{}
	for _, p := range h.Sc.Parts {
		entries[p.Name] = res.OldToNew[p.Entry]
	}
	return &Image{Prog: prog, Entries: entries, Pipe: res}, nil
}

// NewExecutor builds a fresh cold-cache executor over an image.
func (h *Harness) NewExecutor(img *Image, cfg exec.Config) *exec.Executor {
	if cfg.Switch == (coro.CostModel{}) {
		cfg.Switch = h.Mach.Switch
	}
	core := cpu.MustNewCore(h.Mach.CPU, img.Prog, h.Sc.Mem, mem.MustNewHierarchy(h.Mach.Mem))
	return exec.New(core, cfg)
}

// TaskSet couples executor tasks with their expected results.
type TaskSet struct {
	Tasks    []*exec.Task
	names    []string
	expected []uint64
}

// Validate checks every halted task against the host reference. Tasks
// still running (e.g. scavengers at primary completion) are skipped.
func (ts *TaskSet) Validate() error {
	for i, t := range ts.Tasks {
		if !t.Ctx.Halted {
			continue
		}
		if t.Ctx.Result != ts.expected[i] {
			return fmt.Errorf("core: %s computed %d, reference says %d",
				ts.names[i], t.Ctx.Result, ts.expected[i])
		}
	}
	return nil
}

// Merge combines another TaskSet (e.g. scavengers) into ts, renumbering
// context IDs.
func (ts *TaskSet) Merge(other *TaskSet) {
	for i, t := range other.Tasks {
		t.Ctx.ID = len(ts.Tasks) + i
	}
	ts.Tasks = append(ts.Tasks, other.Tasks...)
	ts.names = append(ts.names, other.names...)
	ts.expected = append(ts.expected, other.expected...)
}

// Tasks builds a TaskSet of count instances of the named part against an
// image (entries already remapped). count<=0 means all instances.
func (h *Harness) Tasks(img *Image, part string, mode coro.Mode, count int) (*TaskSet, error) {
	p := h.Sc.Part(part)
	if p == nil {
		return nil, fmt.Errorf("core: no part %q", part)
	}
	if count <= 0 || count > len(p.Instances) {
		count = len(p.Instances)
	}
	ts := &TaskSet{}
	for i := 0; i < count; i++ {
		inst := p.Instances[i]
		ctx := coro.NewContext(i, img.Entries[part], p.StackTops[i])
		ctx.Regs = inst.Regs
		ctx.Regs[isa.SP] = p.StackTops[i]
		ctx.Name = fmt.Sprintf("%s[%d]", part, i)
		ts.Tasks = append(ts.Tasks, exec.NewTask(ctx, mode))
		ts.names = append(ts.names, ctx.Name)
		ts.expected = append(ts.expected, inst.Expected)
	}
	return ts, nil
}
