package trace

import (
	"testing"
	"time"

	"ofc/internal/sim"
)

// TestQuantile audits the nearest-rank rule against the same cases
// metrics.Histogram.Quantile satisfies, with the edge cases that bit
// the histogram before the PR-2 fix: empty input, a single sample, and
// the q<=0 / q>=1 extremes.
func TestQuantile(t *testing.T) {
	ms := func(v int) sim.Time { return sim.Time(v) * sim.Time(time.Millisecond) }
	asc := func(vs ...int) []sim.Time {
		out := make([]sim.Time, len(vs))
		for i, v := range vs {
			out[i] = ms(v)
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []sim.Time
		q      float64
		want   sim.Time
	}{
		{"empty", nil, 0.5, 0},
		{"empty_p99", []sim.Time{}, 0.99, 0},
		{"single_p50", asc(7), 0.50, ms(7)},
		{"single_p99", asc(7), 0.99, ms(7)},
		{"single_p0", asc(7), 0, ms(7)},
		{"single_p100", asc(7), 1, ms(7)},
		{"q_below_zero", asc(1, 2, 3), -0.5, ms(1)},
		{"q_above_one", asc(1, 2, 3), 1.5, ms(3)},
		// rank ⌈0.5·4⌉ = 2 → second element, not an interpolation
		{"even_median", asc(1, 2, 3, 4), 0.50, ms(2)},
		{"odd_median", asc(1, 2, 3, 4, 5), 0.50, ms(3)},
		// ⌈0.99·100⌉ = 99 → 99th of 100
		{"p99_of_100", asc(seq(1, 100)...), 0.99, ms(99)},
		{"p99_of_10", asc(seq(1, 10)...), 0.99, ms(10)},
		{"p25_of_4", asc(10, 20, 30, 40), 0.25, ms(10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Quantile(tc.sorted, tc.q); got != tc.want {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
			}
		})
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func TestBreakdown(t *testing.T) {
	mk := func(name string, start, end int) Span {
		return Span{ID: SpanID(start + 1), Name: name,
			Start: sim.Time(start) * sim.Time(time.Millisecond),
			End:   sim.Time(end) * sim.Time(time.Millisecond)}
	}

	t.Run("empty", func(t *testing.T) {
		if got := Breakdown(nil); len(got) != 0 {
			t.Fatalf("Breakdown(nil) = %v, want empty", got)
		}
	})

	t.Run("single_sample_phase", func(t *testing.T) {
		got := Breakdown([]Span{mk("advice", 0, 6)})
		if len(got) != 1 {
			t.Fatalf("got %d phases, want 1", len(got))
		}
		st := got[0]
		d := 6 * time.Millisecond
		if st.Phase != "advice" || st.Count != 1 ||
			st.Total != d || st.Mean != d || st.P50 != d || st.P99 != d || st.Max != d {
			t.Fatalf("single-sample stats wrong: %+v", st)
		}
	})

	t.Run("zero_duration_phase", func(t *testing.T) {
		got := Breakdown([]Span{mk("predict", 3, 3)})
		if got[0].Count != 1 || got[0].Total != 0 || got[0].P99 != 0 {
			t.Fatalf("zero-duration stats wrong: %+v", got[0])
		}
	})

	t.Run("multi_phase_sorted", func(t *testing.T) {
		got := Breakdown([]Span{
			mk("queue", 0, 2), mk("advice", 2, 8), mk("queue", 10, 16),
		})
		if len(got) != 2 || got[0].Phase != "advice" || got[1].Phase != "queue" {
			t.Fatalf("phases not name-sorted: %+v", got)
		}
		q := got[1]
		if q.Count != 2 || q.Total != 8*time.Millisecond || q.Mean != 4*time.Millisecond ||
			q.P50 != 2*time.Millisecond || q.Max != 6*time.Millisecond {
			t.Fatalf("queue stats wrong: %+v", q)
		}
	})
}
