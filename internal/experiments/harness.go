// Package experiments regenerates every display item of the reproduction:
// Figure 1 and experiments E1–E21 from DESIGN.md §3. Each experiment is a
// pure function of a machine description, returns a formatted table plus
// flat metrics for assertions, and validates every simulated run against
// the workloads' host-reference results.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Result is one experiment's output.
type Result struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Metrics map[string]float64
	Notes   []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: map[string]float64{}}
}

// String renders the result for terminal output.
func (r *Result) String() string {
	s := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Markdown renders the result as markdown (shbench -format md).
func (r *Result) Markdown() string {
	s := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.Markdown() + "\n"
	}
	for _, n := range r.Notes {
		s += "> " + n + "\n"
	}
	return s
}

// MetricsString renders metrics deterministically (used by shbench -v).
func (r *Result) MetricsString() string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%.4f\n", k, r.Metrics[k])
	}
	return s
}

// Runner produces one experiment result.
type Runner func(core.Machine) (*Result, error)

// All returns the experiment registry in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"F1", F1Spectrum},
		{"E1", E1SwitchCost},
		{"E2", E2StallFraction},
		{"E3", E3SMTvsCoro},
		{"E4", E4PipelineThroughput},
		{"E5", E5ThresholdSweep},
		{"E6", E6Ablations},
		{"E7", E7DualMode},
		{"E8", E8ScavengerScaling},
		{"E9", E9IntervalSweep},
		{"E10", E10SamplingPeriod},
		{"E11", E11HWAssist},
		{"E12", E12SFI},
		{"E13", E13InlineAccuracy},
		{"E14", E14SchedulerIntegration},
		{"E15", E15ProfilePortability},
		{"E16", E16Accelerator},
		{"E17", E17PrefetcherInteraction},
		{"E18", E18WindowWidth},
		{"E19", E19SamplingPrecision},
		{"E20", E20SwitchCostSensitivity},
		{"E21", E21OpenLoopScaling},
	}
}

// UnknownIDError reports a failed experiment lookup. Its message lists
// every valid ID so a mistyped -exp value is immediately actionable.
type UnknownIDError struct {
	ID string
}

func (e *UnknownIDError) Error() string {
	return fmt.Sprintf("unknown experiment %q; valid IDs: %s",
		e.ID, strings.Join(IDs(), ", "))
}

// Lookup resolves a (case-sensitive) ID or returns an *UnknownIDError
// naming every valid choice.
func Lookup(id string) (Runner, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, &UnknownIDError{ID: id}
}

// IDs lists all experiment IDs in order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}
