package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro"
	"repro/internal/bincfg"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/service"
	"repro/internal/workloads"
)

// workload is one set of inputs the benchmark runs. rep does one
// repetition of its fixed work through the library's public functions,
// timing each call into a layer when the recorder is on.
type workload struct {
	name string
	why  string
	// loop states how load is generated: closed or open, and on how many
	// simulated cores.
	loop string
	// minReps is the fewest timed reps a run may report on.
	minReps int
	// setups is how many cold set-ups (this process's and fresh child
	// processes') setup_s is the median of. It is 1 where one set-up costs
	// more than a second: the driver's time cap has no room for more there.
	setups int
	// procsCheck adds one untimed rep at GOMAXPROCS=1 whose digest must
	// equal the default-GOMAXPROCS one (workloads with simulated cores
	// on their own goroutines).
	procsCheck bool
	rep        func(e *env) (*repOut, error)
	// layers (traced pass only) derives the workload's per-layer
	// metrics from the traced rep's spans and times the calls a rep
	// makes too briefly, or too deep inside another layer, to show.
	layers func(e *env, spans []span, traced *repOut, m map[string]float64) error
}

var allWorkloads = []*workload{
	{
		name:    "pipeline-chase",
		why:     "the paper's profile, instrument, execute flow on the DRAM-bound chase: mem and the cpu memory path work, machine/service/runner idle",
		loop:    "closed, 1 sim core",
		minReps: 3,
		setups:  3,
		rep:     repPipeline,
		layers:  layersPipeline,
	},
	{
		name:    "alu-tiers",
		why:     "straight-line ALU code through the step, block and superblock tiers: cpu retire does all the work, mem almost none (the bypass for memory-path changes)",
		loop:    "closed, 1 sim core",
		minReps: 3,
		setups:  3,
		rep:     repALU,
		layers:  layersALU,
	},
	{
		name:    "serve-1core",
		why:     "open-loop policy x rate grid on one core: the three policy engines and the arrival process carry the load, no barrier and no dispatcher",
		loop:    "open (simulated time), 1 sim core",
		minReps: 3,
		setups:  1,
		rep:     repServe1,
		layers:  layersServe1,
	},
	{
		name:       "serve-mcore",
		why:        "event-aware cells on 4 cores: dispatcher, quantum barrier and shared-LLC commit sit on every request's path",
		loop:       "open (simulated time), 4 sim cores",
		minReps:    3,
		setups:     1,
		procsCheck: true,
		rep:        repServeM,
		layers:     layersServeM,
	},
	{
		name:       "machine-chase",
		why:        "the quantum kernel without the dispatcher: an LLC-commit-heavy chase phase, then an ALU phase where barrier cost shows",
		loop:       "closed, 4 sim cores",
		minReps:    3,
		setups:     1,
		procsCheck: true,
		rep:        repMachine,
		layers:     layersMachine,
	},
	{
		name:    "sweep",
		why:     "what shbench users run: the registered experiments (all but E21) on the default 256 MiB machine into a cold cache, then warm replays; runner and cache codec, write and read paths",
		loop:    "closed",
		minReps: 2,
		setups:  1,
		rep:     repSweep,
		layers:  layersSweep,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes fixes the amount of work in one rep. "full" is the benchmark;
// "tiny" exists only so the smoke test finishes in seconds under the
// race detector, and its numbers mean nothing.
type sizes struct {
	// memBytes is the per-core memory image everywhere but sweep, which
	// keeps the default 256 MiB its users pay for. At 256 MiB, re-zeroing
	// and re-faulting the image dominates a rep and its kernel time is
	// the noisiest thing in the process.
	memBytes uint64

	chaseNodes, chaseHops, chaseInst int
	scavIters, scavInst              int
	// ALU iterations per tier, sized so the three phases take about
	// equal host time (the tiers differ ~30x in ns/instr).
	aluStep, aluBlock, aluSuper int

	serveReqs  int
	serveRates []float64
	mcoreReqs  int
	mcoreRates []float64
	cores      int

	machNodes, machHops, machInst int
	machALUIters                  int

	// sweepIDs nil means sweepExperiments().
	sweepIDs    []string
	warmReplays int
	// replay is how many addresses the mem replay timings walk and how
	// many arrivals the arrival-process timing draws; smtHops sizes the
	// smt.Run timing.
	replay  int
	smtHops int
}

var scales = map[string]sizes{
	"full": {
		memBytes:   32 << 20,
		chaseNodes: 16384, chaseHops: 100000, chaseInst: 8,
		scavIters: 20_000_000, scavInst: 4,
		aluStep: 60_000, aluBlock: 900_000, aluSuper: 8_000_000,
		serveReqs: 60000, serveRates: []float64{4, 8},
		mcoreReqs: 100000, mcoreRates: []float64{8, 16},
		cores:     4,
		machNodes: 8192, machHops: 300000, machInst: 4,
		machALUIters: 2_000_000,
		warmReplays:  20,
		replay:       1 << 20,
		smtHops:      50000,
	},
	"tiny": {
		memBytes:   1 << 20,
		chaseNodes: 512, chaseHops: 400, chaseInst: 2,
		scavIters: 200_000, scavInst: 2,
		aluStep: 200, aluBlock: 400, aluSuper: 800,
		serveReqs: 100, serveRates: []float64{8},
		mcoreReqs: 150, mcoreRates: []float64{8},
		cores:     2,
		machNodes: 256, machHops: 300, machInst: 2,
		machALUIters: 300,
		sweepIDs:     []string{"E1"},
		warmReplays:  2,
		replay:       1 << 10,
		smtHops:      200,
	},
}

// env is what a rep sees: generated inputs (seed, sizes), the span
// recorder (nil in the untraced pass), the check tally and a scratch
// directory. It never carries the workload's name.
type env struct {
	seed int64
	sz   sizes
	rec  *recorder
	chk  *checks
	dir  string
}

// machine is the reference single-core machine with the benchmark's
// memory size and the run's seed.
func (e *env) machine() core.Machine {
	m := core.DefaultMachine()
	m.MemBytes = e.sz.memBytes
	m.Seed = e.seed
	return m
}

// checks tallies correctness checks; fail_share is failed ÷ attempted.
type checks struct {
	attempted int
	failed    int
	failures  []string
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// noErr counts err == nil as one check.
func (c *checks) noErr(err error, what string) {
	c.ok(err == nil, "%s: %v", what, err)
}

// repOut is what one rep returns: the digest of everything the library
// handed back, how much simulated work was done, and named simulated
// values and counts (exact for a fixed seed).
type repOut struct {
	digest   string
	retired  uint64 // simulated instructions retired (closed-loop workloads)
	requests uint64 // arrivals processed: completed + dropped + shed
	vals     map[string]float64
	// stash hands the traced rep's products to the workload's layers
	// function, so it need not rebuild them.
	stash any
}

// digester hashes returned stats structs and tables through their JSON
// form, which is deterministic (struct order, sorted map keys).
type digester struct {
	h   hash.Hash
	enc *json.Encoder
	err error
}

func newDigester() *digester {
	h := sha256.New()
	return &digester{h: h, enc: json.NewEncoder(h)}
}

func (d *digester) add(v any) {
	if err := d.enc.Encode(v); err != nil && d.err == nil {
		d.err = err
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func pipelineOpts(mach core.Machine) instrument.PipelineOptions {
	opts := instrument.DefaultPipelineOptions()
	opts.Primary.Machine = mach.Mem
	opts.Primary.CPU = mach.CPU
	opts.Primary.Switch = mach.Switch
	opts.Scavenger.Machine = mach.Mem
	opts.Scavenger.CPU = mach.CPU
	return opts
}

// ---- pipeline-chase ----

// pipelineImages is the part of a pipeline rep layersPipeline reuses:
// the composed scenario and its instrumented image.
type pipelineImages struct {
	h   *core.Harness
	img *core.Image
}

func repPipeline(e *env) (*repOut, error) {
	r, z, mach := e.rec, e.sz, e.machine()
	d := newDigester()
	out := &repOut{vals: map[string]float64{}}

	id := r.begin("workloads.compose")
	sc, err := workloads.Compose(mach.MemBytes, mach.Seed,
		workloads.PointerChase{Nodes: z.chaseNodes, Hops: z.chaseHops, Instances: z.chaseInst},
		workloads.Compute{Iters: z.scavIters, Instances: z.scavInst})
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	out.vals["workloads.image_mb"] = float64(sc.Mem.Size()) / 1e6
	h := &core.Harness{Mach: mach, Sc: sc}
	base := h.Baseline()

	// (i) production run under the PEBS sampler.
	id = r.begin("pebs.profile_run")
	hier, err := mem.NewHierarchy(mach.Mem)
	if err != nil {
		return nil, err
	}
	pc, err := cpu.NewCore(mach.CPU, sc.Prog, sc.Mem, hier)
	if err != nil {
		return nil, err
	}
	sampler := pebs.NewSampler(mach.Sampling, len(sc.Prog.Instrs))
	pc.Observe(sampler)
	pex := exec.New(pc, exec.Config{Switch: mach.Switch})
	pts, err := h.Tasks(base, "chase", coro.Primary, 0)
	if err != nil {
		return nil, err
	}
	for _, t := range pts.Tasks {
		st, err := pex.RunSolo(t)
		if err != nil {
			return nil, fmt.Errorf("profiling run: %w", err)
		}
		out.retired += st.Retired
		d.add(st)
	}
	e.rec.end(id)
	e.chk.noErr(pts.Validate(), "profiling run vs host reference")
	out.vals["pebs.samples"] = float64(len(sampler.Samples))
	out.vals["pebs.dropped"] = float64(sampler.Dropped)

	id = r.begin("profile.build")
	prof := profile.Build(len(sc.Prog.Instrs), sampler.Samples, sampler.LBR())
	e.rec.end(id)

	// (ii) rewrite the encoded binary, then verify it statically.
	id = r.begin("isa.encode")
	bin := isa.Encode(sc.Prog)
	e.rec.end(id)
	id = r.begin("instrument.rewrite")
	rewBin, pres, err := instrument.InstrumentImage(bin, prof, pipelineOpts(mach))
	e.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("instrumenting: %w", err)
	}
	id = r.begin("isa.decode")
	prog, err := isa.Decode(rewBin)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	d.add(rewBin.Words)
	yields := pres.Primary.Yields
	if pres.Scavenger != nil {
		yields += len(pres.Scavenger.CondYieldPCs)
	}
	out.vals["instrument.yields_inserted"] = float64(yields)

	id = r.begin("bincfg.analyse")
	g, err := bincfg.Build(prog)
	if err == nil {
		bincfg.ComputeDominators(g)
		bincfg.ComputeLiveness(g)
	}
	e.rec.end(id)
	e.chk.noErr(err, "CFG of the rewritten program")

	img := &core.Image{Prog: prog, Entries: map[string]int{}, Pipe: pres}
	var entries []int
	for _, p := range sc.Parts {
		img.Entries[p.Name] = pres.OldToNew[p.Entry]
		entries = append(entries, pres.OldToNew[p.Entry])
	}
	sort.Ints(entries)
	id = r.begin("check.verify")
	crep := check.Program(sc.Prog, prog, pres.OldToNew, check.Options{Entries: entries})
	e.rec.end(id)
	e.chk.ok(crep.Clean(), "check.Program not clean: %v", crep)

	// (iii) execute: solo baseline, symmetric, dual-mode.
	bts, err := h.Tasks(base, "chase", coro.Primary, 1)
	if err != nil {
		return nil, err
	}
	bex := h.NewExecutor(base, exec.Config{})
	id = r.begin("exec.solo")
	solo, err := bex.RunSolo(bts.Tasks[0])
	e.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("solo baseline: %w", err)
	}
	e.chk.noErr(bts.Validate(), "solo baseline vs host reference")
	out.retired += solo.Retired
	out.vals["_solo_retired"] = float64(solo.Retired)
	d.add(solo)

	sts, err := h.Tasks(img, "chase", coro.Primary, 0)
	if err != nil {
		return nil, err
	}
	sex := h.NewExecutor(img, exec.Config{})
	id = r.begin("exec.sym")
	sym, err := sex.RunSymmetric(sts.Tasks)
	e.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("symmetric run: %w", err)
	}
	e.chk.noErr(sts.Validate(), "symmetric run vs host reference")
	out.retired += sym.Retired
	d.add(sym)

	id = r.begin("exec.dual")
	dual, dex, err := runDual(h, img, exec.Config{})
	e.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("dual-mode run: %w", err)
	}
	e.chk.ok(dual.Halted >= 1, "dual-mode primary did not halt")
	out.retired += dual.Retired
	d.add(dual)
	d.add([]mem.Stats{bex.Core.Hier.Stats, sex.Core.Hier.Stats, dex.Core.Hier.Stats})

	out.vals["sim_cycles"] = float64(dual.Cycles)
	out.vals["sim_cpu_eff"] = dual.Efficiency()
	out.vals["exec.switches"] = float64(dual.Switches)
	out.vals["exec.episodes"] = float64(dual.Episodes)
	if dual.Episodes > 0 {
		out.vals["exec.chains_per_episode"] = float64(dual.ChainSwitches) / float64(dual.Episodes)
	}
	out.vals["exec.switch_cycles"] = float64(dual.Switch)
	// Hierarchy counters summed over the three measured executions.
	var stall, peak uint64
	for _, run := range []struct {
		ex *exec.Executor
		st exec.Stats
	}{{bex, solo}, {sex, sym}, {dex, dual}} {
		ms := run.ex.Core.Hier.Stats
		out.vals["mem.l1_hits"] += float64(ms.Accesses[mem.LevelL1])
		out.vals["mem.l2_hits"] += float64(ms.Accesses[mem.LevelL2])
		out.vals["mem.l3_hits"] += float64(ms.Accesses[mem.LevelL3])
		out.vals["mem.dram_fills"] += float64(ms.Accesses[mem.LevelDRAM])
		if ms.MSHRPeak > peak {
			peak = ms.MSHRPeak
		}
		stall += run.st.Stall
	}
	out.vals["mem.mshr_peak"] = float64(peak)
	out.vals["mem.stall_cycles"] = float64(stall)

	if d.err != nil {
		return nil, d.err
	}
	out.digest = d.sum()
	out.stash = &pipelineImages{h: h, img: img}
	return out, nil
}

// runDual runs chase[0] as the primary over the compute scavengers on a
// fresh cold-cache executor and validates the primary's result.
func runDual(h *core.Harness, img *core.Image, cfg exec.Config) (exec.Stats, *exec.Executor, error) {
	pts, err := h.Tasks(img, "chase", coro.Primary, 1)
	if err != nil {
		return exec.Stats{}, nil, err
	}
	sts, err := h.Tasks(img, "compute", coro.Scavenger, 0)
	if err != nil {
		return exec.Stats{}, nil, err
	}
	ex := h.NewExecutor(img, cfg)
	st, err := ex.RunDualMode(pts.Tasks[0], sts.Tasks)
	if err != nil {
		return exec.Stats{}, nil, err
	}
	if err := pts.Validate(); err != nil {
		return exec.Stats{}, nil, err
	}
	return st, ex, nil
}

// ---- alu-tiers ----

func repALU(e *env) (*repOut, error) {
	r, z, mach := e.rec, e.sz, e.machine()
	d := newDigester()
	out := &repOut{vals: map[string]float64{}}

	// MaxSteps: the superblock phase retires more than the default
	// 200M-instruction runaway guard allows.
	phases := []struct {
		tier  string
		iters int
		cfg   exec.Config
	}{
		{"step", z.aluStep, exec.Config{MaxSteps: 1 << 40}},
		{"block", z.aluBlock, exec.Config{MaxSteps: 1 << 40, DisableSuperblocks: true}},
		{"superblock", z.aluSuper, exec.Config{MaxSteps: 1 << 40}},
	}
	// Compose all three scenarios before running any: with the images
	// alive together the rep's peak memory does not depend on when the
	// collector happens to free the previous tier's image.
	hs := make([]*core.Harness, len(phases))
	id := r.begin("workloads.compose")
	for i, ph := range phases {
		h, err := core.NewHarness(mach, workloads.UnrolledCompute{BlockInstrs: 64, Iters: ph.iters, Instances: 1})
		if err != nil {
			return nil, err
		}
		hs[i] = h
	}
	e.rec.end(id)
	var cycles uint64
	for i, ph := range phases {
		h := hs[i]
		img := h.Baseline()
		ts, err := h.Tasks(img, "unrolled", coro.Primary, 1)
		if err != nil {
			return nil, err
		}
		ex := h.NewExecutor(img, ph.cfg)
		if ph.tier == "step" {
			// An attached observer forces per-instruction dispatch.
			ex.Core.Observe(pebs.NewSampler(mach.Sampling, len(img.Prog.Instrs)))
		}
		id = r.begin("cpu." + ph.tier)
		st, err := ex.RunSolo(ts.Tasks[0])
		e.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s tier: %w", ph.tier, err)
		}
		e.chk.noErr(ts.Validate(), ph.tier+" tier vs host reference")
		out.vals["_retired."+ph.tier] = float64(st.Retired)
		out.retired += st.Retired
		cycles += st.Cycles
		d.add(st)
	}
	out.vals["sim_cycles"] = float64(cycles)
	if d.err != nil {
		return nil, d.err
	}
	out.digest = d.sum()
	return out, nil
}

// ---- serve-1core, serve-mcore ----

func serveConfig(pols []service.Policy, rates []float64, reqs, cores int) (service.Config, error) {
	return service.Config{
		Workload: service.Workload{
			Request:    workloads.PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
			Background: workloads.Compute{Iters: 1500, Instances: 2},
		},
		Arrivals: service.ArrivalSpec{Kind: service.Poisson, Rate: rates[0]},
		Rates:    rates,
		Requests: reqs,
		Workers:  4,
		Queue:    64,
		Batch:    2,
		Policies: pols,
		Topology: machine.Topology{Cores: cores},
	}.Normalized()
}

func repServe1(e *env) (*repOut, error) {
	pols := []service.Policy{service.Agnostic, service.Sidecar, service.EventAware, service.SMT}
	return runServe(e, pols, e.sz.serveRates, e.sz.serveReqs, 1)
}

func repServeM(e *env) (*repOut, error) {
	return runServe(e, []service.Policy{service.EventAware}, e.sz.mcoreRates, e.sz.mcoreReqs, e.sz.cores)
}

// runServe serves every (policy, rate) cell of the grid, one RunCell
// call each, and checks that no request is lost.
func runServe(e *env, pols []service.Policy, rates []float64, reqs, cores int) (*repOut, error) {
	cfg, err := serveConfig(pols, rates, reqs, cores)
	if err != nil {
		return nil, err
	}
	mach := e.machine()
	d := newDigester()
	out := &repOut{vals: map[string]float64{}}
	top := rates[len(rates)-1]
	var completed, offered, coreCycles uint64
	for _, cl := range cfg.Cells() {
		// Each cell composes its own memory images and drops them when it
		// returns. Collecting between cells, and handing the freed images
		// back to the OS, keeps one cell's garbage from overlapping the
		// next cell's images, which would make peak RSS a matter of
		// collector timing.
		debug.FreeOSMemory()
		id := e.rec.begin("service.cell." + cl.Policy.String())
		cs, err := service.RunCell(mach, cfg, cl)
		e.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("cell %s@%g: %w", cl.Policy, cl.Rate, err)
		}
		e.chk.ok(cs.Completed+cs.Dropped+cs.Shed == cs.Requests && cs.Requests == uint64(reqs),
			"cell %s@%g lost requests: completed %d + dropped %d + shed %d != %d",
			cl.Policy, cl.Rate, cs.Completed, cs.Dropped, cs.Shed, reqs)
		d.add(cs)
		completed += cs.Completed
		offered += cs.Requests
		coreCycles += cs.Cycles * uint64(cores)
		out.requests += cs.Completed + cs.Dropped + cs.Shed
		out.vals["service.switches"] += float64(cs.Switches)
		out.vals["service.episodes"] += float64(cs.Episodes)
		out.vals["service.dropped"] += float64(cs.Dropped)
		out.vals["service.shed"] += float64(cs.Shed)
		if cl.Policy == service.EventAware && cl.Rate == top {
			out.vals["sim_p99_us"] = cs.P99Micros()
		}
	}
	out.vals["sim_served_share"] = float64(completed) / float64(offered)
	out.vals["_core_kcycles"] = float64(coreCycles) / 1e3
	if d.err != nil {
		return nil, d.err
	}
	out.digest = d.sum()
	return out, nil
}

// ---- machine-chase ----

func repMachine(e *env) (*repOut, error) {
	z := e.sz
	topo := machine.DefaultTopology(z.cores)
	topo.Machine.MemBytes = z.memBytes
	topo.Machine.Seed = e.seed
	d := newDigester()
	out := &repOut{vals: map[string]float64{}}

	phases := []struct {
		tag string
		rc  machine.RunConfig
	}{
		{"A", machine.RunConfig{
			Spec: workloads.PointerChase{Nodes: z.machNodes, Hops: z.machHops, Instances: z.machInst},
			Mode: machine.ModeSymmetric,
		}},
		{"B", machine.RunConfig{
			Spec: workloads.UnrolledCompute{BlockInstrs: 64, Iters: z.machALUIters, Instances: 1},
			Mode: machine.ModeSolo,
			Exec: exec.Config{MaxSteps: 1 << 40},
		}},
	}
	// Build both machines before running either: with their memory
	// images alive together the rep's peak memory does not depend on
	// when the collector frees phase A's.
	ms := make([]*machine.Machine, len(phases))
	for i, ph := range phases {
		id := e.rec.begin("machine.new")
		m, err := machine.New(topo, ph.rc)
		e.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ph.tag, err)
		}
		defer m.Close()
		ms[i] = m
	}
	var cycles, busy, quanta uint64
	for i, ph := range phases {
		st, err := runMachinePhase(e.rec, ms[i], ph.tag)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ph.tag, err)
		}
		// Machine.Run validated every core against the host reference.
		e.chk.ok(st.Aggregate.Halted > 0, "phase %s: no task halted", ph.tag)
		d.add(st)
		out.retired += st.Aggregate.Retired
		cycles += st.Cycles
		busy += st.Aggregate.Busy
		quanta += st.Quanta
		out.vals["_quanta."+ph.tag] = float64(st.Quanta)
		if ph.tag == "A" {
			out.vals["mem.llc_hits"] = float64(st.LLC.Hits)
			out.vals["mem.llc_misses"] = float64(st.LLC.Misses)
			out.vals["mem.llc_queue_cycles"] = float64(st.LLC.QueueCycles)
		}
	}
	out.vals["machine.quanta"] = float64(quanta)
	out.vals["sim_cycles"] = float64(cycles)
	out.vals["sim_cpu_eff"] = float64(busy) / float64(cycles*uint64(z.cores))
	if d.err != nil {
		return nil, d.err
	}
	out.digest = d.sum()
	return out, nil
}

// runMachinePhase steps a machine quantum by quantum to completion; Run
// then validates every core and returns the statistics (the machine is
// already finished, so Run steps no further).
func runMachinePhase(r *recorder, m *machine.Machine, tag string) (machine.Stats, error) {
	pid := r.begin("machine.run." + tag)
	for {
		sid := r.begin("machine.step")
		done, err := m.Step()
		r.end(sid)
		if err != nil {
			r.end(pid)
			return machine.Stats{}, err
		}
		if done {
			break
		}
	}
	r.end(pid)
	return m.Run()
}

// ---- sweep ----

// sweepExperiments lists what a full-size sweep runs: every registered
// experiment but E21. E21 alone is over half of a sweep's 11 s, three
// sweeps a run (warm-up and two reps) of that length do not fit the
// driver's time cap, and its mechanism is serve-mcore's.
func sweepExperiments() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "E21" {
			ids = append(ids, id)
		}
	}
	return ids
}

func repSweep(e *env) (*repOut, error) {
	r, z := e.rec, e.sz
	ids := z.sweepIDs
	if ids == nil {
		ids = sweepExperiments()
	}
	ctx := context.Background()
	out := &repOut{vals: map[string]float64{}}

	dir, err := os.MkdirTemp(e.dir, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	id := r.begin("runner.session")
	s, err := repro.NewSession(repro.WithSeed(e.seed), repro.WithParallelism(1), repro.WithCache(dir))
	e.rec.end(id)
	if err != nil {
		return nil, err
	}

	// Cold: simulate, encode, put.
	_, sys0 := cpuTimes()
	t0 := time.Now()
	id = r.begin("runner.sweep")
	cold, err := s.Sweep(ctx, ids, 1)
	if err == nil && r != nil {
		// The jobs ran one after another inside Sweep; lay their
		// recorded walls end to end under the sweep span so the trace
		// charges each experiment its own time.
		at := r.spans[id].Start
		for _, rr := range cold {
			r.spans = append(r.spans, span{Name: "experiments." + rr.Job.ID, Start: at, End: at + int64(rr.Wall), Parent: id, Rep: r.rep})
			at += int64(rr.Wall)
		}
	}
	r.end(id)
	sweepWall := time.Since(t0)
	_, sys1 := cpuTimes()
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	var jobWall time.Duration
	coldJSON := make([][]byte, len(cold))
	d := newDigester()
	for i, rr := range cold {
		e.chk.ok(!rr.CacheHit, "%s: cold sweep hit the cache", rr.Job.ID)
		jobWall += rr.Wall
		out.vals["experiments."+rr.Job.ID+"_s"] = rr.Wall.Seconds()
		if coldJSON[i], err = json.Marshal(rr.Res); err != nil {
			return nil, err
		}
		d.add(rr.Res)
	}
	out.vals["runner.sweep_wall_s"] = sweepWall.Seconds()
	out.vals["runner.overhead_ms"] = float64(sweepWall-jobWall) / 1e6
	out.vals["runner.sys_s"] = sys1 - sys0
	out.vals["runner.cache_bytes"] = float64(dirBytes(dir))

	// Warm: get, decode; every replay must reproduce the cold bytes.
	var warm []float64
	for i := 0; i < z.warmReplays; i++ {
		t := time.Now()
		id = r.begin("runner.warm_replay")
		rs, err := s.Sweep(ctx, ids, 1)
		e.rec.end(id)
		warm = append(warm, float64(time.Since(t))/1e6)
		if err != nil {
			return nil, fmt.Errorf("warm replay: %w", err)
		}
		same := len(rs) == len(cold)
		for j := 0; same && j < len(rs); j++ {
			b, err := json.Marshal(rs[j].Res)
			same = err == nil && rs[j].CacheHit && string(b) == string(coldJSON[j])
		}
		e.chk.ok(same, "warm replay %d differs from the cold sweep", i)
	}
	out.vals["runner.warm_replay_ms"] = summarize(warm).Median

	if d.err != nil {
		return nil, d.err
	}
	out.digest = d.sum()
	out.stash = cold
	return out, nil
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, de := range entries {
		if info, err := os.Stat(filepath.Join(dir, de.Name())); err == nil {
			n += info.Size()
		}
	}
	return n
}
