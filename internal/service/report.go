package service

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// CellStats summarizes one served sweep cell. Every field round-trips
// through the result cache (Session.Serve's codec), so a cell replayed
// from the cache renders byte-identically to one served fresh.
type CellStats struct {
	Policy Policy
	Rate   float64 // offered load, requests/µs
	Cores  int     // cores the cell was served on (1 = classic engine)

	Requests  uint64 // arrivals generated
	Completed uint64
	Dropped   uint64 // rejected at a full admission queue
	Shed      uint64 // abandoned at dispatch (older than ShedAfter)
	BatchOps  uint64 // background batch completions

	Cycles   uint64 // serving-loop wall cycles
	Switches uint64 // context switches enacted
	Episodes uint64 // hide episodes (asymmetric policies)
	Chains   uint64 // scavenger chain hand-offs

	// Sojourn quantiles (arrival → retire), cycles. Quantile values are
	// FineHist bucket upper bounds (≤6% wide), Mean and Max exact.
	P50, P99, P999 uint64
	MeanSojourn    float64
	MaxSojourn     uint64

	// Hist is the full sojourn histogram (non-empty fine buckets), kept
	// as a rendered table so it survives the JSON result cache.
	Hist *stats.Table
}

// Throughput returns completed requests per simulated microsecond.
func (cs CellStats) Throughput() float64 {
	if cs.Cycles == 0 {
		return 0
	}
	return float64(cs.Completed) / (float64(cs.Cycles) / CyclesPerMicro)
}

// micros converts cycles to simulated microseconds.
func micros(cycles uint64) float64 { return float64(cycles) / CyclesPerMicro }

// P99Micros reports the p99 sojourn in simulated microseconds.
func (cs CellStats) P99Micros() float64 { return micros(cs.P99) }

// summarize folds the per-core cells that served cl into one CellStats:
// the per-core ledgers sum and their sojourn histograms merge (exactly
// equivalent to one histogram observing every request), quantiles come
// from the merged histogram, episodes and chains from the asymmetric
// loops, and the cell's wall clock is the furthest core clock.
// sharedDropped counts rejections at a multi-core cell's shared
// admission queue, which no core ever saw. When a registry observes the
// cell, the merged ledger and the cores' counters fold into it too.
func summarize(cl Cell, cells []*cell, sharedDropped uint64) CellStats {
	led := metrics.Service{Arrivals: sharedDropped, Dropped: sharedDropped}
	cs := CellStats{Policy: cl.Policy, Rate: cl.Rate, Cores: len(cells)}
	for _, c := range cells {
		led.Add(&c.led)
		if l, ok := c.loop.(*exec.Asym); ok {
			st := l.Stats()
			cs.Episodes += st.Episodes
			cs.Chains += st.ChainSwitches
		}
		cs.Cycles = max(cs.Cycles, c.ex.Core.Now)
		for _, sl := range c.slots {
			cs.Switches += sl.task.Ctx.Switches
		}
		for _, b := range c.batch {
			cs.Switches += b.task.Ctx.Switches
		}
		c.ex.CaptureMetrics()
	}
	if reg := cells[0].ex.Cfg.Metrics; reg != nil {
		reg.Service.Add(&led)
	}
	cs.Requests, cs.Completed, cs.Dropped, cs.Shed, cs.BatchOps =
		led.Arrivals, led.Completed, led.Dropped, led.Shed, led.BatchOps
	cs.P50, cs.P99, cs.P999 = led.Sojourn.Quantile(0.50), led.Sojourn.Quantile(0.99), led.Sojourn.Quantile(0.999)
	cs.MeanSojourn, cs.MaxSojourn = led.Sojourn.Mean(), led.Sojourn.Max
	cs.Hist = stats.NewTable(
		fmt.Sprintf("sojourn histogram: %s at %g req/µs (cycles)", cl.Policy, cl.Rate),
		"bucket_lo", "bucket_hi", "count")
	for i, n := range led.Sojourn.Buckets[:] {
		if n > 0 {
			lo, hi := metrics.FineBucketBounds(i)
			cs.Hist.Row(lo, hi, n)
		}
	}
	return cs
}

// ResultID is a sweep cell's runner job and result ID.
func (cl Cell) ResultID() string {
	return fmt.Sprintf("serve/%s/rate=%g", cl.Policy, cl.Rate)
}

// Report is a served sweep: one CellStats per (policy, rate) grid
// point, in grid order (policies as configured, rates within).
type Report struct {
	Cells []CellStats
}

// Cell returns the stats for a grid point, or nil.
func (r *Report) Cell(p Policy, rate float64) *CellStats {
	for i := range r.Cells {
		if r.Cells[i].Policy == p && r.Cells[i].Rate == rate {
			return &r.Cells[i]
		}
	}
	return nil
}

// policies lists distinct policies in first-seen cell order.
func (r *Report) policies() []Policy {
	var out []Policy
	for _, cs := range r.Cells {
		if !slices.Contains(out, cs.Policy) {
			out = append(out, cs.Policy)
		}
	}
	return out
}

// rates lists distinct offered loads in first-seen cell order.
func (r *Report) rates() []float64 {
	var out []float64
	for _, cs := range r.Cells {
		if !slices.Contains(out, cs.Rate) {
			out = append(out, cs.Rate)
		}
	}
	return out
}

// Tables renders the sweep: one throughput/latency table per policy,
// then the cross-policy p99-vs-offered-load comparison.
func (r *Report) Tables() []*stats.Table {
	var tables []*stats.Table
	for _, pol := range r.policies() {
		t := stats.NewTable(
			fmt.Sprintf("service: %s — throughput and sojourn vs offered load", pol),
			"rate_per_us", "arrivals", "completed", "dropped", "shed",
			"thr_per_us", "p50_us", "p99_us", "p999_us", "mean_us", "batch_ops")
		for _, cs := range r.Cells {
			if cs.Policy != pol {
				continue
			}
			t.Row(cs.Rate, cs.Requests, cs.Completed, cs.Dropped, cs.Shed,
				cs.Throughput(), micros(cs.P50), micros(cs.P99), micros(cs.P999),
				cs.MeanSojourn/CyclesPerMicro, cs.BatchOps)
		}
		tables = append(tables, t)
	}
	if pols := r.policies(); len(pols) > 1 {
		headers := []string{"rate_per_us"}
		for _, p := range pols {
			headers = append(headers, p.String())
		}
		t := stats.NewTable("service: p99 sojourn (µs) vs offered load, by policy", headers...)
		for _, rate := range r.rates() {
			row := []interface{}{rate}
			for _, p := range pols {
				if cs := r.Cell(p, rate); cs != nil {
					row = append(row, micros(cs.P99))
				} else {
					row = append(row, "-")
				}
			}
			t.Row(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// String renders the report's summary tables.
func (r *Report) String() string {
	var b strings.Builder
	for i, t := range r.Tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}
