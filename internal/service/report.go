package service

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// CellStats summarizes one served sweep cell. All fields round-trip
// through experiments.Result (Result / CellStatsFromResult), so a cell
// replayed from the result cache renders byte-identically to one served
// fresh.
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

// P50Micros, P99Micros and P999Micros report the sojourn quantiles in
// simulated microseconds.
func (cs CellStats) P50Micros() float64  { return micros(cs.P50) }
func (cs CellStats) P99Micros() float64  { return micros(cs.P99) }
func (cs CellStats) P999Micros() float64 { return micros(cs.P999) }

// summarize folds the per-core cells that served cl into one CellStats:
// counters sum, per-core sojourn histograms fold together bucket-wise
// (exactly equivalent to one histogram observing every request),
// quantiles come from the merged histogram, and the cell's wall clock
// is the furthest core clock. sharedDropped counts rejections at a
// multi-core cell's shared admission queue, which no core ever saw.
func summarize(cl Cell, cells []*cell, sharedDropped uint64) CellStats {
	var merged metrics.FineHist
	cs := CellStats{
		Policy:   cl.Policy,
		Rate:     cl.Rate,
		Cores:    len(cells),
		Requests: sharedDropped,
		Dropped:  sharedDropped,
	}
	for _, c := range cells {
		s := &c.reg.Service
		cs.Requests += s.Arrivals
		cs.Completed += s.Completed
		cs.Dropped += s.Dropped
		cs.Shed += s.Shed
		cs.BatchOps += s.BatchOps
		cs.Episodes += c.reg.Exec.Episodes
		cs.Chains += c.reg.Exec.Chains
		merged.Merge(&s.Sojourn)
		cs.Cycles = max(cs.Cycles, c.ex.Core.Now)
		for _, sl := range c.slots {
			cs.Switches += sl.task.Ctx.Switches
		}
		for _, b := range c.batch {
			cs.Switches += b.task.Ctx.Switches
		}
	}
	cs.P50 = merged.Quantile(0.50)
	cs.P99 = merged.Quantile(0.99)
	cs.P999 = merged.Quantile(0.999)
	cs.MeanSojourn = merged.Mean()
	cs.MaxSojourn = merged.Max
	cs.Hist = sojournTable(&merged, cl.Policy, cl.Rate)
	return cs
}

// sojournTable renders the non-empty fine buckets. A nil histogram
// (metrics off) renders as an empty table.
func sojournTable(h *metrics.FineHist, pol Policy, rate float64) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("sojourn histogram: %s at %g req/µs (cycles)", pol, rate),
		"bucket_lo", "bucket_hi", "count")
	if h == nil {
		return t
	}
	for i := 0; i < metrics.NumFineBuckets; i++ {
		if h.Buckets[i] == 0 {
			continue
		}
		lo, hi := metrics.FineBucketBounds(i)
		t.Row(lo, hi, h.Buckets[i])
	}
	return t
}

// ResultID is the canonical experiments.Result ID for a sweep cell.
func (cl Cell) ResultID() string {
	return fmt.Sprintf("serve/%s/rate=%g", cl.Policy, cl.Rate)
}

// resultKeys are the CellStats scalars carried in Result.Metrics.
const (
	keyPolicy    = "policy_code"
	keyRate      = "rate_per_us"
	keyCores     = "cores"
	keyRequests  = "requests"
	keyCompleted = "completed"
	keyDropped   = "dropped"
	keyShed      = "shed"
	keyBatchOps  = "batch_ops"
	keyCycles    = "cycles"
	keySwitches  = "switches"
	keyEpisodes  = "episodes"
	keyChains    = "chains"
	keyP50       = "sojourn_p50_cycles"
	keyP99       = "sojourn_p99_cycles"
	keyP999      = "sojourn_p999_cycles"
	keyMean      = "sojourn_mean_cycles"
	keyMax       = "sojourn_max_cycles"
)

// Result converts the cell summary to an experiments.Result so sweep
// cells flow through the runner and its content-addressed cache like
// any experiment. The scalars ride in Metrics, the sojourn histogram in
// Tables[0].
func (cs CellStats) Result() *experiments.Result {
	res := &experiments.Result{
		ID:    Cell{Policy: cs.Policy, Rate: cs.Rate}.ResultID(),
		Title: fmt.Sprintf("open-loop service: %s at %g req/µs", cs.Policy, cs.Rate),
		Metrics: map[string]float64{
			keyPolicy:    float64(cs.Policy),
			keyRate:      cs.Rate,
			keyCores:     float64(cs.Cores),
			keyRequests:  float64(cs.Requests),
			keyCompleted: float64(cs.Completed),
			keyDropped:   float64(cs.Dropped),
			keyShed:      float64(cs.Shed),
			keyBatchOps:  float64(cs.BatchOps),
			keyCycles:    float64(cs.Cycles),
			keySwitches:  float64(cs.Switches),
			keyEpisodes:  float64(cs.Episodes),
			keyChains:    float64(cs.Chains),
			keyP50:       float64(cs.P50),
			keyP99:       float64(cs.P99),
			keyP999:      float64(cs.P999),
			keyMean:      cs.MeanSojourn,
			keyMax:       float64(cs.MaxSojourn),
		},
	}
	if cs.Hist != nil {
		res.Tables = append(res.Tables, cs.Hist)
	}
	return res
}

// CellStatsFromResult is the inverse of CellStats.Result, used when a
// sweep cell is served from the result cache.
func CellStatsFromResult(res *experiments.Result) (CellStats, error) {
	get := func(key string) (float64, error) {
		v, ok := res.Metrics[key]
		if !ok {
			return 0, fmt.Errorf("service: result %s lacks metric %q", res.ID, key)
		}
		return v, nil
	}
	var cs CellStats
	var err error
	read := func(dst *uint64, key string) {
		if err != nil {
			return
		}
		var v float64
		if v, err = get(key); err == nil {
			*dst = uint64(v)
		}
	}
	var pol float64
	if pol, err = get(keyPolicy); err != nil {
		return CellStats{}, err
	}
	cs.Policy = Policy(pol)
	if cs.Rate, err = get(keyRate); err != nil {
		return CellStats{}, err
	}
	var cores float64
	if cores, err = get(keyCores); err != nil {
		return CellStats{}, err
	}
	cs.Cores = int(cores)
	read(&cs.Requests, keyRequests)
	read(&cs.Completed, keyCompleted)
	read(&cs.Dropped, keyDropped)
	read(&cs.Shed, keyShed)
	read(&cs.BatchOps, keyBatchOps)
	read(&cs.Cycles, keyCycles)
	read(&cs.Switches, keySwitches)
	read(&cs.Episodes, keyEpisodes)
	read(&cs.Chains, keyChains)
	read(&cs.P50, keyP50)
	read(&cs.P99, keyP99)
	read(&cs.P999, keyP999)
	read(&cs.MaxSojourn, keyMax)
	if err != nil {
		return CellStats{}, err
	}
	if cs.MeanSojourn, err = get(keyMean); err != nil {
		return CellStats{}, err
	}
	if len(res.Tables) > 0 {
		cs.Hist = res.Tables[0]
	}
	return cs, nil
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
		seen := false
		for _, p := range out {
			if p == cs.Policy {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, cs.Policy)
		}
	}
	return out
}

// rates lists distinct offered loads in first-seen cell order.
func (r *Report) rates() []float64 {
	var out []float64
	for _, cs := range r.Cells {
		seen := false
		for _, v := range out {
			if v == cs.Rate {
				seen = true
				break
			}
		}
		if !seen {
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
