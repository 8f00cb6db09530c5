package mltree

import (
	"runtime"
	"testing"
)

// benchProbes extracts a power-of-two probe set from the dataset so
// benchmark loops can index with a mask instead of an integer divide
// (the divide would otherwise dominate a ~30 ns walk).
func benchProbes(d *Dataset) [][]float64 {
	const n = 4096
	probes := make([][]float64, n)
	for i := range probes {
		probes[i] = d.Instances[i%d.Len()].Vals
	}
	return probes
}

// fitCase is one dataset BenchmarkJ48Fit trains on; maxAllocs is the
// ceiling TestJ48FitAllocCeiling holds one Fit on it to.
type fitCase struct {
	name      string
	d         *Dataset
	maxAllocs float64
}

// fitCases are the 600-row nominal dataset and the two shapes the
// ModelTrainer refits (tie-heavy numeric columns): the capped memory
// set over 128 interval classes and the two-class benefit set, which
// grows with the run.
func fitCases() []fitCase {
	return []fitCase{
		{"Nominal600x3x3", nominalDataset(600, 1), 41},
		{"Mem300x5x128", tieDataset(1, 300, 128, 24, "numeric", 2), 60},
		{"Benefit2000x5x2", tieDataset(2, 2000, 2, 24, "numeric", 2), 54},
	}
}

// BenchmarkJ48Fit measures training on each of fitCases.
func BenchmarkJ48Fit(b *testing.B) {
	for _, bc := range fitCases() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewJ48().Fit(bc.d)
			}
		})
	}
}

// BenchmarkJ48Refit measures a kept learner refitting each of fitCases,
// as the ModelTrainer refits a dataset: the builder's scratch and
// column orders are the last fit's, so only the tree is allocated.
func BenchmarkJ48Refit(b *testing.B) {
	for _, bc := range fitCases() {
		b.Run(bc.name, func(b *testing.B) {
			j := NewJ48()
			j.Fit(bc.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Fit(bc.d)
			}
		})
	}
}

// TestJ48FitAllocCeiling pins the allocations of one cold-learner
// J48.Fit on each of fitCases at the count BenchmarkJ48Fit reports.
func TestJ48FitAllocCeiling(t *testing.T) {
	for _, c := range fitCases() {
		n := testing.AllocsPerRun(10, func() { NewJ48().Fit(c.d) })
		if n <= c.maxAllocs {
			continue
		}
		if appendMakeAllocates() {
			t.Skipf("%s: %.0f allocs with append(s, make(...)...) allocating its temporary (race detector): the builder's per-split size slots count as allocations", c.name, n)
		}
		t.Errorf("%s: J48.Fit allocates %.0f times, want at most %.0f", c.name, n, c.maxAllocs)
	}
}

// TestJ48RefitAllocCeiling: the ModelTrainer's refit, a kept learner's
// second Fit of a dataset grown by appends, allocates the Tree and a
// copy of each of its non-empty tables, and nothing else but one
// regrowth of each of the builder's tables that the bigger tree
// outgrows. The builder's scratch and column orders are the first
// fit's, with room for the rows appended since. The count is the least
// of three runs, each with a fresh learner: a run can catch an
// allocation of the runtime's own.
func TestJ48RefitAllocCeiling(t *testing.T) {
	for _, c := range fitCases() {
		var least, ceiling uint64
		for run := 0; run < 3; run++ {
			grown := NewDataset(c.d.Attrs, c.d.Classes)
			add := func(rows []Instance) {
				for _, in := range rows {
					grown.AddWeighted(in.Vals, in.Class, in.Weight)
				}
			}
			cut := c.d.Len() * 9 / 10
			add(c.d.Instances[:cut])
			j := NewJ48()
			j.Fit(grown)
			add(c.d.Instances[cut:])
			rooms := func() [3]int { return [3]int{cap(j.b.nodes), cap(j.b.children), cap(j.b.dist)} }
			room := rooms()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tree := j.Fit(grown).(*Tree)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; run == 0 || n < least {
				least = n
			}
			ceiling = 3 // the Tree, its nodes and its distributions
			if len(tree.children) > 0 {
				ceiling++
			}
			for i, now := range rooms() {
				if now > room[i] {
					ceiling++
				}
			}
		}
		if least > ceiling {
			if appendMakeAllocates() {
				t.Skipf("%s: %d allocs with append(s, make(...)...) allocating its temporary (race detector)", c.name, least)
			}
			t.Errorf("%s: refit allocates %d times, want at most %d", c.name, least, ceiling)
		}
	}
}

// appendMakeAllocates reports whether append(s, make([]T, n)...)
// allocates the temporary slice instead of extending s in place, which
// the compiler does only when it instruments for the race detector.
func appendMakeAllocates() bool {
	s := make([]int, 0, 64)
	n := len(s) + 8
	return testing.AllocsPerRun(10, func() { s = append(s[:0], make([]int, n)...) }) > 0
}

// BenchmarkJ48Classify measures the critical-path prediction (§5.1's
// 1 ms budget; Figure 6) on a predictor-shaped tree (numeric features,
// 128 memory classes): the serving path OFC puts on every invocation.
func BenchmarkJ48Classify(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d)
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48Distribution measures the benefit-score path: the
// Predictor reads the probability mass behind the verdict into a kept
// buffer (zero allocations).
func BenchmarkJ48Distribution(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d).(*Tree)
	buf := make([]float64, model.NumClasses())
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.DistributionInto(probes[i&(len(probes)-1)], buf)
	}
}

// BenchmarkForestClassify measures the RandomForest alternative the
// paper rejected for critical-path latency.
func BenchmarkForestClassify(b *testing.B) {
	d := nominalDataset(600, 1)
	model := (&RandomForest{Trees: 30, MinLeaf: 1, Seed: 1}).Fit(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(d.Instances[i%d.Len()].Vals)
	}
}

// BenchmarkHoeffdingObserve measures incremental learning throughput.
func BenchmarkHoeffdingObserve(b *testing.B) {
	d := nominalDataset(600, 1)
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := d.Instances[i%d.Len()]
		h.Observe(inst.Vals, inst.Class)
	}
}

// BenchmarkHoeffdingClassify measures the incremental tree's *serving*
// path — the adaptive-NB walk every classification pays, distinct from
// the Observe ingest path benchmarked above.
func BenchmarkHoeffdingClassify(b *testing.B) {
	d := nominalDataset(2000, 12)
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	for i := range d.Instances {
		h.Observe(d.Instances[i].Vals, d.Instances[i].Class)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Classify(d.Instances[i%d.Len()].Vals)
	}
}
