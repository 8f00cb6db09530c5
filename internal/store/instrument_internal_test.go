package store

import (
	"testing"
	"time"
)

// TestLatencyQuantileNearestRank pins the overload controller's
// store-p99 signal to the repo's one rank definition (ceiling
// nearest-rank, metrics.Quantile): round-half-up read the 158th of 160
// samples where p99 is the 159th.
func TestLatencyQuantileNearestRank(t *testing.T) {
	window := func(n int) *Instrumented {
		in := NewInstrumented(nil)
		for i := n; i >= 1; i-- { // descending: the query must sort
			in.observeLocked(time.Duration(i) * time.Millisecond)
		}
		return in
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int // expected sample (= rank), in ms
	}{
		{0, 0.99, 0},
		{1, 0.5, 1},
		{1, 0.99, 1},
		{160, 0.99, 159},
		{160, 0, 1},
		{160, -1, 1},
		{160, 1, 160},
		{160, 2, 160},
		{latencyWindow, 0.99, 507}, // ⌈506.88⌉
	} {
		if got := window(c.n).LatencyQuantile(c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("n=%d q=%v: got %v, want %dms", c.n, c.q, got, c.want)
		}
	}
}
