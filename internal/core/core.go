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
//     (step ii), and the rewrite is statically verified (internal/check)
//     before the image is returned.
//  3. Run the instrumented Image under one of the closed-loop
//     disciplines — RunSolo, RunSymmetric, RunDualMode (asymmetric
//     concurrency) or the RunSMT baseline (step iii).
//
// Each Run method builds its tasks, runs them to completion on a fresh
// executor and checks every halted task against its host reference
// (TaskSet.Validate): a wrong result is an error, so experiments measure
// correct executions only. Tasks and NewExecutor remain the low-level
// form for schedules the Run methods do not cover.
package core

import (
	"fmt"
	"math"

	"repro/internal/check"
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

// PipelineOptions returns the reference instrumentation options priced
// for this machine: both phases model its hierarchy and core, and the
// primary phase its context-switch costs.
func (m Machine) PipelineOptions() instrument.PipelineOptions {
	opts := instrument.DefaultPipelineOptions()
	opts.Primary.Machine, opts.Primary.CPU, opts.Primary.Switch = m.Mem, m.CPU, m.Switch
	opts.Scavenger.Machine, opts.Scavenger.CPU = m.Mem, m.CPU
	return opts
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

// Validate rejects a machine whose hierarchy or core configuration is
// invalid, so that every core a harness builds on it can be built.
func (m Machine) Validate() error {
	if err := m.Mem.Validate(); err != nil {
		return fmt.Errorf("core: machine: %w", err)
	}
	if err := m.CPU.Validate(); err != nil {
		return fmt.Errorf("core: machine: %w", err)
	}
	return nil
}

// NewHarness composes the specs on the machine, which must be valid
// (Machine.Validate).
func NewHarness(mach Machine, specs ...workloads.Spec) (*Harness, error) {
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	sc, err := workloads.Compose(mach.MemBytes, mach.Seed, specs...)
	if err != nil {
		return nil, err
	}
	return &Harness{Mach: mach, Sc: sc}, nil
}

// On returns a harness over the same scenario on another machine, so a
// job that varies the platform composes its image once. Runs on either
// harness share the scenario's memory image, as runs on one harness
// always do. The machine must be valid and keep MemBytes and Seed, the
// two fields that fix the composed image.
func (h *Harness) On(m Machine) (*Harness, error) {
	if m.MemBytes != h.Mach.MemBytes || m.Seed != h.Mach.Seed {
		return nil, fmt.Errorf("core: harness composed at MemBytes %d, Seed %d cannot run on MemBytes %d, Seed %d",
			h.Mach.MemBytes, h.Mach.Seed, m.MemBytes, m.Seed)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Harness{Mach: m, Sc: h.Sc}, nil
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

// Instrument runs the full §3.2+§3.3 pipeline over the scenario binary
// and verifies the rewrite (internal/check) before returning it: an
// unsound image comes back as the report's *check.ReportError, never as
// an image.
func (h *Harness) Instrument(prof *profile.Profile, opts instrument.PipelineOptions) (*Image, error) {
	bin, res, err := instrument.InstrumentImage(isa.Encode(h.Sc.Prog), prof, opts)
	if err != nil {
		return nil, err
	}
	prog, err := isa.Decode(bin)
	if err != nil {
		return nil, err
	}
	img := h.FromRewrite(prog, res.OldToNew)
	img.Pipe = res
	if err := h.verify(img); err != nil {
		return nil, err
	}
	return img, nil
}

// verify statically checks an image Instrument built against the
// scenario's original binary, rooting reachability at the rewritten
// part entries.
func (h *Harness) verify(img *Image) error {
	var entries []int
	for _, p := range h.Sc.Parts {
		entries = append(entries, img.Pipe.OldToNew[p.Entry])
	}
	return check.Program(h.Sc.Prog, img.Prog, img.Pipe.OldToNew, check.Options{Entries: entries}).Err()
}

// NewExecutor builds a fresh cold-cache executor over an image.
func (h *Harness) NewExecutor(img *Image, cfg exec.Config) *exec.Executor {
	if cfg.Switch == (coro.CostModel{}) {
		cfg.Switch = h.Mach.Switch
	}
	return exec.New(h.newCore(img), cfg)
}

// newCore builds a cold-cache core over an image.
func (h *Harness) newCore(img *Image) *cpu.Core {
	return cpu.MustNewCore(h.Mach.CPU, img.Prog, h.Sc.Mem, mem.MustNewHierarchy(h.Mach.Mem))
}

// RunSolo runs instance 0 of part alone on a fresh executor over img
// and validates its result.
func (h *Harness) RunSolo(img *Image, part string, cfg exec.Config) (exec.Stats, error) {
	ts, err := h.Tasks(img, part, coro.Primary, 1)
	if err != nil {
		return exec.Stats{}, err
	}
	return h.closedLoop(img, cfg, func(ex *exec.Executor) (exec.Stats, error) { return ex.RunSolo(ts.Tasks[0]) }, ts)
}

// RunSymmetric interleaves the first n instances of part (all of them
// when n<=0) as equals on a fresh executor over img and validates every
// result.
func (h *Harness) RunSymmetric(img *Image, part string, n int, cfg exec.Config) (exec.Stats, error) {
	ts, err := h.Tasks(img, part, coro.Primary, n)
	if err != nil {
		return exec.Stats{}, err
	}
	return h.closedLoop(img, cfg, func(ex *exec.Executor) (exec.Stats, error) { return ex.RunSymmetric(ts.Tasks) }, ts)
}

// RunDualMode runs instance 0 of primary as the latency-sensitive
// primary against n instances of scavenger (the instances after the
// primary when both parts are one) on a fresh executor over img, and
// validates every task that halted.
func (h *Harness) RunDualMode(img *Image, primary, scavenger string, n int, cfg exec.Config) (exec.Stats, error) {
	first := 0
	if scavenger == primary {
		first = 1
	}
	pts, err := h.tasks(img, primary, coro.Primary, 0, 1)
	if err != nil {
		return exec.Stats{}, err
	}
	sts, err := h.tasks(img, scavenger, coro.Scavenger, first, first+n)
	if err != nil {
		return exec.Stats{}, err
	}
	return h.closedLoop(img, cfg, func(ex *exec.Executor) (exec.Stats, error) { return ex.RunDualMode(pts.Tasks[0], sts.Tasks) }, pts, sts)
}

// RunSMT runs the first n instances of part (all of them when n<=0) as
// the hardware threads of the SMT baseline, rotating every
// exec.SMTSlice busy cycles, on a fresh executor over img and validates
// every result.
func (h *Harness) RunSMT(img *Image, part string, n int, cfg exec.Config) (exec.Stats, error) {
	ts, err := h.Tasks(img, part, coro.Primary, n)
	if err != nil {
		return exec.Stats{}, err
	}
	return h.closedLoop(img, cfg, func(ex *exec.Executor) (exec.Stats, error) { return ex.RunSMT(ts.Tasks, exec.SMTSlice) }, ts)
}

// closedLoop runs one discipline on a fresh executor over img, harvests
// its counters into cfg.Metrics (a no-op without a registry) and
// validates every halted task of sets.
func (h *Harness) closedLoop(img *Image, cfg exec.Config, run func(*exec.Executor) (exec.Stats, error), sets ...*TaskSet) (exec.Stats, error) {
	ex := h.NewExecutor(img, cfg)
	st, err := run(ex)
	ex.CaptureMetrics()
	if err != nil {
		return st, err
	}
	for _, ts := range sets {
		if err := ts.Validate(); err != nil {
			return st, err
		}
	}
	return st, nil
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
	if count <= 0 {
		count = math.MaxInt
	}
	return h.tasks(img, part, mode, 0, count)
}

// tasks builds a TaskSet of the instances [first, end) of the named
// part, end clamped to the instances there are.
func (h *Harness) tasks(img *Image, part string, mode coro.Mode, first, end int) (*TaskSet, error) {
	p := h.Sc.Part(part)
	if p == nil {
		return nil, fmt.Errorf("core: no part %q", part)
	}
	ts := &TaskSet{}
	for i := first; i < min(end, len(p.Instances)); i++ {
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
