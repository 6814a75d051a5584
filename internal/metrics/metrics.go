// Package metrics is the cycle-domain observability registry: plain
// uint64 counters and fixed-array histograms, plus a Snapshot copy that
// renders the whole registry as a stats.Table or a flat metric map.
//
// # Filled by harvest
//
// Nothing in the cycle domain holds a Registry. Every layer counts into
// state it owns and keeps unconditionally — mem.Hierarchy.Stats,
// cpu.Counters, an executor's Exec value, a serve cell's Service
// ledger, the pebs sampler — and the registry is filled from those at
// run end:
//
//   - Mem, CPU and Exec by exec.Executor.CaptureMetrics, once per
//     executor;
//   - Sched and Machine by internal/machine, once per machine;
//   - Service by internal/service, once per serve cell;
//   - Sampler by pebs.Sampler.FillMetrics, once per profile.
//
// Mem, CPU, Exec, Sched and Service are running totals: every fold
// adds, so one registry observing two runs holds their sums. Machine
// and Sampler describe the most recent machine or profile.
//
// Everything in a Registry is a plain uint64 field or a fixed array of
// them — no maps, no interfaces, no mutexes — so counting and folding
// never allocate. A Registry is not safe for concurrent use; give each
// worker its own and merge snapshots, exactly as the parallel runner
// does for tracers.
package metrics

import (
	"strconv"

	"repro/internal/stats"
)

// Mem aggregates cache-hierarchy counters, filled from
// mem.Hierarchy.Stats by (*mem.Hierarchy).FillMetrics.
type Mem struct {
	// Demand accesses by serving level.
	L1Hits, L2Hits, L3Hits, DRAMAccesses uint64
	// InflightHits are demand accesses that met an in-flight fill;
	// InflightFull counts the subset whose fill had already completed
	// (the prefetch fully hid the miss).
	InflightHits, InflightFull uint64
	// L2Misses counts accesses that missed both L1 and L2 — the event
	// class the paper's mechanism targets.
	L2Misses uint64
	// Prefetch activity and MSHR pressure.
	Prefetches    uint64 // software prefetches that started a fill
	PrefetchHits  uint64 // software prefetches that found the line cached/in flight
	HWPrefetches  uint64 // hardware stream-prefetcher fills
	MSHRDrops     uint64 // prefetches dropped at the MaxInflight cap
	MSHRHighWater uint64 // peak simultaneous outstanding fills
	Writebacks    uint64 // dirty L1 victims written back
}

// Add folds another hierarchy's counters into m, as the many-core
// machine does across its cores: every counter sums except
// MSHRHighWater, which keeps the higher peak.
func (m *Mem) Add(o Mem) {
	m.L1Hits += o.L1Hits
	m.L2Hits += o.L2Hits
	m.L3Hits += o.L3Hits
	m.DRAMAccesses += o.DRAMAccesses
	m.InflightHits += o.InflightHits
	m.InflightFull += o.InflightFull
	m.L2Misses += o.L2Misses
	m.Prefetches += o.Prefetches
	m.PrefetchHits += o.PrefetchHits
	m.HWPrefetches += o.HWPrefetches
	m.MSHRDrops += o.MSHRDrops
	m.MSHRHighWater = max(m.MSHRHighWater, o.MSHRHighWater)
	m.Writebacks += o.Writebacks
}

// CPU aggregates core-level cycle accounting, filled from cpu.Counters
// by (*cpu.Counters).FillMetrics.
type CPU struct {
	Retired     uint64 // instructions retired
	BusyCycles  uint64 // cycles doing work (incl. pipeline-absorbed latency)
	StallCycles uint64 // exposed memory stall cycles
	Faults      uint64 // execution faults (bad PC, memory fault, SFI trap)
}

// Add folds another core's counters into c.
func (c *CPU) Add(o CPU) {
	c.Retired += o.Retired
	c.BusyCycles += o.BusyCycles
	c.StallCycles += o.StallCycles
	c.Faults += o.Faults
}

// Exec holds the hide-episode accounting of the dual-mode loop, which
// counts it unconditionally at episode boundaries.
type Exec struct {
	// Episodes counts closed hide episodes; EpisodeDur.Count equals it
	// by construction, which is the reconciliation invariant the tests
	// pin.
	Episodes uint64
	// EpisodeCycles is total away time (primary switched out);
	// HiddenCycles is the portion that covered the hide target;
	// OvershootCycles is away time beyond the target — the latency cost
	// of asymmetric concurrency, per episode.
	EpisodeCycles   uint64
	HiddenCycles    uint64
	OvershootCycles uint64
	// EpisodeDur distributes episode away times; EpisodeCover
	// distributes the covered portion min(away, target). Both are in
	// cycles, log2-bucketed.
	EpisodeDur   Hist
	EpisodeCover Hist
	// Chains counts scavenger-to-scavenger hand-offs inside episodes;
	// HWSkips counts §4.1 presence-probe suppressed yields.
	Chains  uint64
	HWSkips uint64
}

// NoteEpisode records one closed hide episode: the away time and the
// hide target it was meant to cover. The dual-mode loop calls it on
// every episode; it must stay allocation-free.
func (x *Exec) NoteEpisode(away, target uint64) {
	covered := away
	if covered > target {
		covered = target
		x.OvershootCycles += away - target
	}
	x.Episodes++
	x.EpisodeCycles += away
	x.HiddenCycles += covered
	x.EpisodeDur.Observe(away)
	x.EpisodeCover.Observe(covered)
}

// Add folds another executor's accounting into x: counters sum and the
// histograms merge.
func (x *Exec) Add(o *Exec) {
	x.Episodes += o.Episodes
	x.EpisodeCycles += o.EpisodeCycles
	x.HiddenCycles += o.HiddenCycles
	x.OvershootCycles += o.OvershootCycles
	x.EpisodeDur.Merge(&o.EpisodeDur)
	x.EpisodeCover.Merge(&o.EpisodeCover)
	x.Chains += o.Chains
	x.HWSkips += o.HWSkips
}

// Sched holds request accounting bumped by internal/machine at the end
// of each run: one request per task, its latency the halt time.
type Sched struct {
	Requests uint64 // latency-sensitive requests completed
	// RequestLatency distributes request completion times (cycles from
	// run start), log2-bucketed.
	RequestLatency Hist
}

// Service holds the open-loop service-harness accounting: a serve
// cell's request ledger, bumped by internal/service per request
// lifecycle event (arrival → admit → dispatch → retire), and a
// registry's fold of the ledgers of every cell it observed. The
// conservation invariant the tests pin:
// Arrivals = Admitted + Dropped, and Admitted = Completed + Shed once
// a run drains.
type Service struct {
	Arrivals  uint64 // requests generated by the arrival process
	Admitted  uint64 // requests accepted into the bounded queue
	Dropped   uint64 // requests rejected at a full queue (load shedding at the door)
	Shed      uint64 // admitted requests abandoned at dispatch (exceeded ShedAfter)
	Completed uint64 // requests served and validated
	BatchOps  uint64 // background batch-task completions (the scavenger tier)
	// Sojourn distributes request sojourn times (arrival to retire) in
	// cycles with ~6% resolution — fine enough for p999 claims.
	Sojourn FineHist
}

// Add folds another ledger into s, as a serve cell does across its
// cores and an observed sweep across its cells: counters sum and the
// sojourn histograms merge.
func (s *Service) Add(o *Service) {
	s.Arrivals += o.Arrivals
	s.Admitted += o.Admitted
	s.Dropped += o.Dropped
	s.Shed += o.Shed
	s.Completed += o.Completed
	s.BatchOps += o.BatchOps
	s.Sojourn.Merge(&o.Sojourn)
}

// Sampler aggregates profiling-overhead counters, filled from the PEBS
// sampler by (*pebs.Sampler).FillMetrics.
type Sampler struct {
	Samples        uint64 // samples recorded
	Dropped        uint64 // samples lost to a full buffer (still trapped)
	Branches       uint64 // taken branches fed to the LBR ring
	OverheadCycles uint64 // modelled profiling overhead
}

// Machine aggregates many-core kernel accounting, filled from
// machine.Stats after a Run: quantum/barrier counts, shared-LLC traffic
// and contention, plus aggregate work across all cores, for the most
// recent machine. Its cores share one registry, so Mem, CPU, Exec and
// Sched beside this section add up every core; per-core detail is in
// machine.Stats.
type Machine struct {
	Cores  uint64 // simulated cores in the topology
	Quanta uint64 // cycle quanta (barrier commits) executed
	Cycles uint64 // simulated cycles (max across cores)
	// Shared-LLC traffic: probes by outcome, plus contention queueing.
	LLCHits        uint64
	LLCMisses      uint64
	LLCQueued      uint64 // accesses that paid a contention penalty
	LLCQueueCycles uint64 // total penalty cycles added
	LLCPeakBank    uint64 // peak per-bank committed load of any quantum
	// Aggregate work across cores.
	Retired     uint64
	BusyCycles  uint64
	StallCycles uint64
}

// Registry is the top-level observability registry: one value per
// domain, all plain data. The zero value is ready to use.
type Registry struct {
	Mem     Mem
	CPU     CPU
	Exec    Exec
	Sched   Sched
	Service Service
	Sampler Sampler
	Machine Machine
}

// Reset zeroes every counter and histogram in place.
func (r *Registry) Reset() { *r = Registry{} }

// Snapshot is a point-in-time copy of a Registry, safe to render or
// serialize while the registry keeps counting. A Registry is plain data,
// so the copy is the registry itself, by value.
type Snapshot = Registry

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot { return *r }

// Table renders the snapshot as a stats.Table (domain, metric, value
// triples), mergeable into any experiment's table list. Histograms
// contribute their totals, means and coarse tail quantiles plus one
// row per non-empty bucket, so episode-duration distributions are
// inspectable without any external tooling.
func (s Snapshot) Table() *stats.Table {
	t := stats.NewTable("observability", "domain", "metric", "value")
	domain := ""
	for _, c := range s.counters() {
		if c.domain != domain {
			s.domainHists(t, domain)
			domain = c.domain
		}
		t.Row(c.domain, c.name, c.v)
	}
	s.domainHists(t, domain)
	return t
}

// counter is one scalar registry value under its domain and name.
type counter struct {
	domain, name string
	v            uint64
}

// counters lists every scalar counter once, in table order; Table and
// Metrics both walk it.
func (s *Snapshot) counters() []counter {
	return []counter{
		{"mem", "l1_hits", s.Mem.L1Hits},
		{"mem", "l2_hits", s.Mem.L2Hits},
		{"mem", "l3_hits", s.Mem.L3Hits},
		{"mem", "dram_accesses", s.Mem.DRAMAccesses},
		{"mem", "inflight_hits", s.Mem.InflightHits},
		{"mem", "inflight_full", s.Mem.InflightFull},
		{"mem", "l2_misses", s.Mem.L2Misses},
		{"mem", "prefetches", s.Mem.Prefetches},
		{"mem", "prefetch_hits", s.Mem.PrefetchHits},
		{"mem", "hw_prefetches", s.Mem.HWPrefetches},
		{"mem", "mshr_drops", s.Mem.MSHRDrops},
		{"mem", "mshr_high_water", s.Mem.MSHRHighWater},
		{"mem", "writebacks", s.Mem.Writebacks},
		{"cpu", "retired", s.CPU.Retired},
		{"cpu", "busy_cycles", s.CPU.BusyCycles},
		{"cpu", "stall_cycles", s.CPU.StallCycles},
		{"cpu", "faults", s.CPU.Faults},
		{"exec", "episodes", s.Exec.Episodes},
		{"exec", "episode_cycles", s.Exec.EpisodeCycles},
		{"exec", "hidden_cycles", s.Exec.HiddenCycles},
		{"exec", "overshoot_cycles", s.Exec.OvershootCycles},
		{"exec", "chains", s.Exec.Chains},
		{"exec", "hw_skips", s.Exec.HWSkips},
		{"sched", "requests", s.Sched.Requests},
		{"service", "arrivals", s.Service.Arrivals},
		{"service", "admitted", s.Service.Admitted},
		{"service", "dropped", s.Service.Dropped},
		{"service", "shed", s.Service.Shed},
		{"service", "completed", s.Service.Completed},
		{"service", "batch_ops", s.Service.BatchOps},
		{"sampler", "samples", s.Sampler.Samples},
		{"sampler", "dropped", s.Sampler.Dropped},
		{"sampler", "branches", s.Sampler.Branches},
		{"sampler", "overhead_cycles", s.Sampler.OverheadCycles},
		{"machine", "cores", s.Machine.Cores},
		{"machine", "quanta", s.Machine.Quanta},
		{"machine", "cycles", s.Machine.Cycles},
		{"machine", "llc_hits", s.Machine.LLCHits},
		{"machine", "llc_misses", s.Machine.LLCMisses},
		{"machine", "llc_queued", s.Machine.LLCQueued},
		{"machine", "llc_queue_cycles", s.Machine.LLCQueueCycles},
		{"machine", "llc_peak_bank_load", s.Machine.LLCPeakBank},
		{"machine", "retired", s.Machine.Retired},
		{"machine", "busy_cycles", s.Machine.BusyCycles},
		{"machine", "stall_cycles", s.Machine.StallCycles},
	}
}

// domainHists appends the histogram rows that close a domain's block of
// the table, after its counters.
func (s *Snapshot) domainHists(t *stats.Table, domain string) {
	hist := func(name string, h *Hist) {
		histRows(t, domain, name, &h.Tally, h.Buckets[:], BucketBounds, h.Quantile, "50", "99")
	}
	switch domain {
	case "exec":
		hist("episode_dur", &s.Exec.EpisodeDur)
		hist("episode_cover", &s.Exec.EpisodeCover)
	case "sched":
		hist("request_latency", &s.Sched.RequestLatency)
	case "service":
		// The fine buckets resolve p999 to ~6%.
		h := &s.Service.Sojourn
		histRows(t, domain, "sojourn", &h.Tally, h.Buckets[:], FineBucketBounds, h.Quantile, "50", "99", "999")
	}
}

// histRows appends one summary block for a Hist or FineHist: total,
// mean, a bound per tail ("99" is p99_le, the 0.99 quantile), then each
// non-empty bucket as "name[lo,hi)".
func histRows(t *stats.Table, domain, name string, tl *Tally, buckets []uint64,
	bounds func(int) (lo, hi uint64), quantile func(float64) uint64, tails ...string) {
	t.Row(domain, name+"_total", tl.Count)
	if tl.Count == 0 {
		return
	}
	t.Row(domain, name+"_mean", tl.Mean())
	for _, p := range tails {
		q, _ := strconv.ParseFloat("0."+p, 64)
		t.Row(domain, name+"_p"+p+"_le", quantile(q))
	}
	for i, n := range buckets {
		if n != 0 {
			lo, hi := bounds(i)
			t.Row(domain, name+"["+strconv.FormatUint(lo, 10)+","+strconv.FormatUint(hi, 10)+")", n)
		}
	}
}

// Metrics flattens the snapshot into dst under "obs."-prefixed keys,
// the shape experiments.Result.Metrics uses. Histograms contribute
// total/mean/tail-bound entries only (buckets stay in the Table form).
func (s Snapshot) Metrics(dst map[string]float64) {
	for _, c := range s.counters() {
		dst["obs."+c.domain+"."+c.name] = float64(c.v)
	}
	dst["obs.exec.episode_dur_mean"] = s.Exec.EpisodeDur.Mean()
	dst["obs.exec.episode_cover_mean"] = s.Exec.EpisodeCover.Mean()
	dst["obs.sched.request_latency_mean"] = s.Sched.RequestLatency.Mean()
	dst["obs.service.sojourn_mean"] = s.Service.Sojourn.Mean()
	dst["obs.service.sojourn_p50_le"] = float64(s.Service.Sojourn.Quantile(0.50))
	dst["obs.service.sojourn_p99_le"] = float64(s.Service.Sojourn.Quantile(0.99))
	dst["obs.service.sojourn_p999_le"] = float64(s.Service.Sojourn.Quantile(0.999))
}
