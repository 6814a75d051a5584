package service

import (
	"fmt"
	"slices"

	"repro/internal/exec"
)

// Drain is the closed-loop form of the three §4.2 software policies: it
// runs requests and batch tasks on ex under pol until every request has
// completed. Latencies[i] is request i's completion cycle from the
// start; Cycles and Busy cover the whole drain. Agnostic round-robins
// requests with batch work. Sidecar runs requests FIFO, each the
// primary of a dual-mode run whose scavengers are the unfinished batch
// tasks; EventAware puts the pending requests ahead of the batch in
// that pool, so a request may already be done when its turn comes (its
// latency is then the end of the run that finished it). The hardware
// baselines OSThread and SMT have no closed-loop form and are refused.
func Drain(ex *exec.Executor, pol Policy, reqs, batch []*exec.Task) (exec.Stats, error) {
	if pol != Agnostic && pol != Sidecar && pol != EventAware {
		return exec.Stats{}, fmt.Errorf("service: %s has no closed-loop drain (want agnostic, sidecar or event-aware)", pol)
	}
	start := ex.Core.Now
	st := exec.Stats{Latencies: make([]uint64, len(reqs))}
	if pol == Agnostic {
		sym, err := ex.RunSymmetric(slices.Concat(reqs, batch))
		if err != nil {
			return st, err
		}
		copy(st.Latencies, sym.Latencies)
	}
	for i, req := range reqs {
		if pol != Agnostic && !req.Ctx.Halted {
			pool := slices.Clone(batch)
			if pol == EventAware {
				pool = slices.Concat(reqs[i+1:], batch)
			}
			pool = slices.DeleteFunc(pool, func(t *exec.Task) bool { return t.Ctx.Halted })
			if _, err := ex.RunDualMode(req, pool); err != nil {
				return st, err
			}
		}
		for j, r := range reqs {
			if r.Ctx.Halted && st.Latencies[j] == 0 {
				st.Latencies[j] = ex.Core.Now - start
			}
		}
	}
	st.Cycles = ex.Core.Now - start
	for _, t := range slices.Concat(reqs, batch) {
		st.Busy += t.Ctx.BusyCycles
	}
	return st, nil
}
