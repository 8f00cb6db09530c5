package mltree

import "testing"

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
		{"Nominal600x3x3", nominalDataset(600, 1), 63},
		{"Mem300x5x128", tieDataset(1, 300, 128, 24, "numeric", 2), 661},
		{"Benefit2000x5x2", tieDataset(2, 2000, 2, 24, "numeric", 2), 526},
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

// appendMakeAllocates reports whether append(s, make([]T, n)...)
// allocates the temporary slice instead of extending s in place, which
// the compiler does only when it instruments for the race detector.
func appendMakeAllocates() bool {
	s := make([]int, 0, 64)
	n := len(s) + 8
	return testing.AllocsPerRun(10, func() { s = append(s[:0], make([]int, n)...) }) > 0
}

// BenchmarkJ48Classify measures the critical-path prediction (§5.1's
// 1 ms budget; Figure 6) through the pointer-walk representation, on a
// predictor-shaped tree (numeric features, 128 memory classes).
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

// BenchmarkJ48CompiledClassify is the same prediction through the
// flattened node tables — the serving path OFC puts on every
// invocation.
func BenchmarkJ48CompiledClassify(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d).(*Tree).Compile()
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48Distribution measures the benefit-score path (the
// Predictor reads the probability mass behind the verdict).
func BenchmarkJ48Distribution(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d)
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Distribution(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48CompiledDistribution is the buffered compiled
// counterpart (zero allocations).
func BenchmarkJ48CompiledDistribution(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d).(*Tree).Compile()
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
