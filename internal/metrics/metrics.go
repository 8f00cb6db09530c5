// Package metrics provides the small statistics containers the
// experiment harness reports with: duration histograms with exact
// percentiles and the lock-free counter blocks of the advice memo,
// the overload controller and the memory-control policies.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram collects duration samples and answers exact order
// statistics (the evaluation's medians and p99s).
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// ensureSorted sorts in place; callers hold h.mu.
func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Quantile returns the q-th (0..1) order statistic, 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ensureSorted()
	return Quantile(h.samples, q)
}

// Quantile returns the q-th quantile of an ascending-sorted slice by
// ceiling nearest-rank (the smallest sample with at least a q fraction
// of the distribution at or below it): rank ⌈q·n⌉. An empty slice
// yields 0, q <= 0 the first element, q >= 1 the last. Truncation or
// round-half-up would bias low — p99 of 50 samples must be the 50th
// value, not the 49th, and of 160 the 159th, not the 158th. Every
// quantile reported outside benchmark/ comes from here.
func Quantile(sorted []time.Duration, q float64) time.Duration {
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

// Median is Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.Quantile(1) }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d median=%v p99=%v max=%v", h.Count(), h.Median(), h.P99(), h.Max())
}
