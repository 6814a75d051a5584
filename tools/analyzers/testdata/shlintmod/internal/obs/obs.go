// Package obs is the metricsguard integration fixture: unguarded uses
// of the nil-able metrics pointers, plus the recognized guard idiom as
// a control.
package obs

import "shlintfixture/internal/metrics"

// Tracer carries optional observability hooks.
type Tracer struct {
	Reg  *metrics.Registry
	Hist *metrics.FineHist
}

// Bump is a seeded defect: Reg is nil when metrics are off.
func (t *Tracer) Bump() {
	t.Reg.Hides++
}

// Record is a seeded defect on the FineHist extension: method calls
// through a nil-able histogram pointer need the same guard.
func (t *Tracer) Record(v uint64) {
	t.Hist.Observe(v)
}

// Guarded is the control: the recognized idiom passes.
func (t *Tracer) Guarded() {
	if r := t.Reg; r != nil {
		r.Faults++
	}
}
