package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	// Ceiling nearest-rank: the median of 1..100 is rank ⌈0.5·100⌉ = 50.
	if m := h.Median(); m != 50*time.Millisecond {
		t.Errorf("median=%v", m)
	}
	// Rank ⌈0.99·100⌉ = 99: exactly 99% of samples are ≤ it.
	if p := h.P99(); p != 99*time.Millisecond {
		t.Errorf("p99=%v", p)
	}
	if mx := h.Max(); mx != 100*time.Millisecond {
		t.Errorf("max=%v", mx)
	}
	if h.Count() != 100 {
		t.Errorf("count=%d", h.Count())
	}
}

// TestQuantileNearestRank pins the ceiling nearest-rank definition:
// Quantile(q) is the smallest sample with at least q·n of the
// distribution at or below it. The old int(q·n) truncation biased low
// for small n (e.g. p99 of 50 samples returned the 49th value).
func TestQuantileNearestRank(t *testing.T) {
	mk := func(n int) *Histogram {
		var h Histogram
		for i := 1; i <= n; i++ {
			h.Add(time.Duration(i) * time.Millisecond)
		}
		return &h
	}
	cases := []struct {
		n    int
		q    float64
		want int // expected sample value (= expected rank), in ms
	}{
		{1, 0.5, 1},
		{1, 0.99, 1},
		{2, 0.5, 1},    // ⌈0.5·2⌉ = 1
		{2, 0.51, 2},   // ⌈0.51·2⌉ = 2
		{3, 0.5, 2},    // ⌈1.5⌉ = 2
		{4, 0.25, 1},   // exact boundary: ⌈1⌉ = 1
		{4, 0.75, 3},   // ⌈3⌉ = 3
		{5, 0.99, 5},   // old truncation gave rank 4
		{50, 0.99, 50}, // old truncation gave rank 49
		{100, 0.99, 99},
		{100, 0.991, 100},
		{160, 0.99, 159}, // ⌈158.4⌉; round-half-up gave rank 158
		{10, 0.0, 1},
		{10, 1.0, 10},
	}
	for _, c := range cases {
		h := mk(c.n)
		if got := h.Quantile(c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("n=%d q=%v: got %v, want %dms", c.n, c.q, got, c.want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Median() != 0 || h.P99() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zero")
	}
}

func TestHistogramInterleavedAddQuery(t *testing.T) {
	var h Histogram
	h.Add(5 * time.Millisecond)
	if h.Median() != 5*time.Millisecond {
		t.Error("single-sample median")
	}
	h.Add(time.Millisecond) // must re-sort after the query
	if h.Quantile(0) != time.Millisecond {
		t.Error("min after interleaved add")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, r := range raw {
			h.Add(time.Duration(r) * time.Microsecond)
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(0) <= h.Median() && h.Median() <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
