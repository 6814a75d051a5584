package metrics

import "math/bits"

// NumBuckets is the fixed bucket count of a Hist: one bucket for zero
// plus one per power of two up to 2^63. The storage is a fixed array so
// a Hist never allocates, no matter what it observes.
const NumBuckets = 65

// Hist is a log2-bucketed histogram over uint64 values with fixed
// storage. Bucket 0 counts zero-valued observations; bucket i (i ≥ 1)
// counts values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Observe is a few arithmetic instructions and two fixed-offset array
// writes — cheap enough to sit on episode boundaries in the cycle
// domain, and allocation-free by construction.
type Hist struct {
	Buckets [NumBuckets]uint64
	Tally
}

// Tally is what Hist and FineHist keep beside their buckets.
type Tally struct {
	// Count and Sum summarize all observations; Count equals the sum of
	// the buckets and is kept inline so totals reconcile without a walk.
	Count uint64
	Sum   uint64
	// Min and Max track the observed range (Min is meaningful only when
	// Count > 0).
	Min uint64
	Max uint64
}

// note records one value.
func (t *Tally) note(v uint64) {
	if t.Count == 0 || v < t.Min {
		t.Min = v
	}
	t.Max = max(t.Max, v)
	t.Count++
	t.Sum += v
}

// merge folds o's observations into t.
func (t *Tally) merge(o Tally) {
	if o.Count == 0 {
		return
	}
	if t.Count == 0 || o.Min < t.Min {
		t.Min = o.Min
	}
	t.Max = max(t.Max, o.Max)
	t.Count += o.Count
	t.Sum += o.Sum
}

// quantile is the rank walk both histograms share: the exclusive upper
// edge, by bounds, of the bucket holding the q·Count-th observation (at
// least the first), or 0 when empty.
func (t *Tally) quantile(buckets []uint64, bounds func(int) (lo, hi uint64), q float64) uint64 {
	if t.Count == 0 {
		return 0
	}
	rank := max(uint64(q*float64(t.Count)), 1)
	var seen uint64
	for i, n := range buckets {
		if seen += n; seen >= rank {
			_, hi := bounds(i)
			return hi
		}
	}
	return t.Max
}

// Mean returns the average observed value, or 0 when empty.
func (t *Tally) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.Sum) / float64(t.Count)
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.note(v)
}

// Reset zeroes the histogram in place.
func (h *Hist) Reset() { *h = Hist{} }

// Merge folds o's observations into h, exactly as if h had observed
// them itself (see FineHist.Merge).
func (h *Hist) Merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.merge(o.Tally)
}

// BucketBounds returns the half-open value range [lo, hi) covered by
// bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 1
	}
	if i >= 64 {
		return 1 << 63, ^uint64(0)
	}
	return 1 << (i - 1), 1 << i
}

// Quantile returns an upper bound for the q-th quantile (0 < q ≤ 1):
// the exclusive upper edge of the bucket containing the q·Count-th
// observation. With log2 buckets this is accurate to a factor of two,
// which is the resolution the hide-episode analysis needs (is the tail
// 100 ns or 1 µs?).
func (h *Hist) Quantile(q float64) uint64 { return h.quantile(h.Buckets[:], BucketBounds, q) }
