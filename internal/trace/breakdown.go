package trace

import (
	"sort"

	"ofc/internal/metrics"
	"ofc/internal/sim"
)

// PhaseStat aggregates all spans of one name (one phase) across a
// trace set.
type PhaseStat struct {
	Phase string
	Count int
	Total sim.Time
	Mean  sim.Time
	P50   sim.Time
	P99   sim.Time
	Max   sim.Time
}

// Breakdown aggregates spans into per-phase latency statistics, sorted
// by phase name (collect-then-sort: no map order leaks into output).
func Breakdown(spans []Span) []PhaseStat {
	byPhase := make(map[string][]sim.Time)
	for i := range spans {
		byPhase[spans[i].Name] = append(byPhase[spans[i].Name], spans[i].Duration())
	}
	names := make([]string, 0, len(byPhase))
	for name := range byPhase {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PhaseStat, 0, len(names))
	for _, name := range names {
		ds := byPhase[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := PhaseStat{Phase: name, Count: len(ds)}
		for _, d := range ds {
			st.Total += d
		}
		if n := len(ds); n > 0 {
			st.Mean = st.Total / sim.Time(n)
			st.P50 = Quantile(ds, 0.50)
			st.P99 = Quantile(ds, 0.99)
			st.Max = ds[n-1]
		}
		out = append(out, st)
	}
	return out
}

// Quantile is metrics.Quantile on the virtual clock's type: the q-th
// quantile of an ascending-sorted slice by ceiling nearest-rank.
func Quantile(sorted []sim.Time, q float64) sim.Time {
	return metrics.Quantile(sorted, q)
}
