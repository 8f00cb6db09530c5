package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile of an ascending-sorted slice by
// the ceiling nearest-rank rule (rank ⌈q·n⌉), the rule of
// metrics.Histogram.Quantile and trace.Quantile: 0 when empty, the
// first element for q <= 0, the last for q >= 1.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// summary is a timing reported over repetitions: median, quartiles
// and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize sorts a copy of vals and reads the quartiles by nearest
// rank; the median of an even count is the mean of the middle pair so
// two repetitions do not report the slower one as "the median".
func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: n}
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
