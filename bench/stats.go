package main

import (
	"math"
	"sort"
)

// summary describes one timing (or any repeated measurement) the way
// the method asks for: sample count, median, extremes and the
// interquartile range.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
}

// summarize computes the summary of xs. Quartiles use the exclusive
// method (the same one Python's statistics.quantiles(xs, n=4) uses, so
// the figures agree with the driver's), clamped to the sample range;
// fewer than two samples have an IQR of 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1], Median: quantile(s, 0.5)}
	if len(s) > 1 {
		out.IQR = quantile(s, 0.75) - quantile(s, 0.25)
	}
	return out
}

// quantile returns the p-quantile of the sorted sample s by linear
// interpolation at position p·(n+1) (exclusive method).
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := math.Floor(pos)
	frac := pos - lo
	return s[int(lo)] + frac*(s[int(lo)+1]-s[int(lo)])
}

// percentile is quantile over an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// relDiff is |a−b| as a share of |a|, the first of the two; equal
// values differ by 0 even when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.SmallestNonzeroFloat64)
}
