package metrics

import "math/bits"

// NumFineBuckets is the fixed bucket count of a FineHist: 16 exact
// buckets for values below 16, then 16 log-linear sub-buckets per power
// of two up to 2^63. As with Hist, the storage is a fixed array so a
// FineHist never allocates, no matter what it observes.
const NumFineBuckets = 16 + 60*16

// FineHist is a log-linear histogram over uint64 values: values below
// 16 are counted exactly, larger values land in one of 16 equal-width
// sub-buckets of their power-of-two range. Bucket edges are therefore
// at most 1/16 ≈ 6% apart, which is the resolution a p999 sojourn-time
// claim needs — Hist's factor-of-two buckets can say "the tail is
// between 65k and 131k cycles", a FineHist pins it to ±6%. Observe is a
// few shifts and two fixed-offset array writes, cheap enough to sit on
// per-request completion paths in the cycle domain.
type FineHist struct {
	Buckets [NumFineBuckets]uint64
	Tally
}

// fineIndex maps a value to its bucket.
func fineIndex(v uint64) int {
	if v < 16 {
		return int(v)
	}
	b := bits.Len64(v) - 1 // v in [2^b, 2^(b+1)), b ≥ 4
	sub := (v >> (uint(b) - 4)) & 15
	return (b-3)*16 + int(sub) // 16 exact buckets, then 16 per power of two from 2^4
}

// FineBucketBounds returns the half-open value range [lo, hi) covered
// by bucket i.
func FineBucketBounds(i int) (lo, hi uint64) {
	if i < 16 {
		return uint64(i), uint64(i) + 1
	}
	g := uint(i-16)/16 + 4
	sub := uint64(i-16) % 16
	width := uint64(1) << (g - 4)
	lo = 1<<g + sub*width
	if g == 63 && sub == 15 {
		return lo, ^uint64(0)
	}
	return lo, lo + width
}

// Observe records one value.
func (h *FineHist) Observe(v uint64) {
	h.Buckets[fineIndex(v)]++
	h.note(v)
}

// Reset zeroes the histogram in place.
func (h *FineHist) Reset() { *h = FineHist{} }

// Merge folds o's observations into h: bucket-wise sums plus the
// combined range. Because every field is additive (and Min/Max are
// order-free), merging per-worker histograms is exactly equivalent to
// having observed every value on one histogram — which is what lets
// per-core sojourn histograms collapse into one service report without
// re-observing a single request.
func (h *FineHist) Merge(o *FineHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.merge(o.Tally)
}

// Quantile returns an upper bound for the q-th quantile (0 < q ≤ 1):
// the exclusive upper edge of the bucket containing the q·Count-th
// observation, accurate to the bucket width (≤ 6% above 16). The
// bucket's edge can overshoot the true maximum; the answer is never
// above the largest observation.
func (h *FineHist) Quantile(q float64) uint64 {
	hi := h.quantile(h.Buckets[:], FineBucketBounds, q)
	if hi > h.Max {
		hi = h.Max + 1
	}
	return hi
}
