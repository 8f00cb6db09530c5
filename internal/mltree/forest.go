package mltree

import (
	"math"
	"math/rand"
)

// RandomTree grows an unpruned tree that considers a random subset of
// K attributes at each node (Weka's RandomTree).
type RandomTree struct {
	// K is the number of attributes sampled per node; zero selects
	// the Weka default log2(#attrs)+1.
	K       int
	MinLeaf float64
	Seed    int64
}

// NewRandomTree returns a RandomTree learner with Weka-like defaults.
func NewRandomTree(seed int64) *RandomTree { return &RandomTree{MinLeaf: 1, Seed: seed} }

// Name implements Learner.
func (r *RandomTree) Name() string { return "RandomTree" }

// Fit implements Learner.
func (r *RandomTree) Fit(d *Dataset) Classifier {
	k := r.K
	if k <= 0 {
		k = int(math.Log2(float64(len(d.Attrs)))) + 1
	}
	if k > len(d.Attrs) {
		k = len(d.Attrs)
	}
	minLeaf := r.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 1
	}
	rng := rand.New(rand.NewSource(r.Seed))
	b := treeBuilder{minLeaf: minLeaf, attrSampler: func() []int {
		perm := rng.Perm(len(d.Attrs))
		return perm[:k]
	}}
	return &Tree{root: b.fit(d, nil), attrs: d.Attrs, n: d.Len()}
}

// RandomForest bags RandomTrees and classifies by majority vote of the
// member distributions (Breiman 2001, as implemented in Weka).
type RandomForest struct {
	// Trees is the ensemble size (Weka default 100; the paper's
	// comparisons are insensitive above ~30, which we use to keep the
	// benchmarks brisk while preserving accuracy).
	Trees   int
	K       int
	MinLeaf float64
	Seed    int64
}

// NewRandomForest returns a forest learner with sensible defaults.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{Trees: 30, MinLeaf: 1, Seed: seed}
}

// Name implements Learner.
func (r *RandomForest) Name() string { return "RandomForest" }

// Forest is a trained random forest.
type Forest struct {
	members []*Tree
	classes int
}

// Fit implements Learner.
func (r *RandomForest) Fit(d *Dataset) Classifier {
	n := r.Trees
	if n <= 0 {
		n = 30
	}
	rng := rand.New(rand.NewSource(r.Seed))
	f := &Forest{classes: len(d.Classes)}
	for i := 0; i < n; i++ {
		bag := d.Bootstrap(rng)
		rt := &RandomTree{K: r.K, MinLeaf: r.MinLeaf, Seed: rng.Int63()}
		f.members = append(f.members, rt.Fit(bag).(*Tree))
	}
	return f
}

// Distribution implements Classifier: average of member distributions.
func (f *Forest) Distribution(vals []float64) []float64 {
	dist := make([]float64, f.classes)
	for _, t := range f.members {
		for c, p := range t.Distribution(vals) {
			dist[c] += p
		}
	}
	for c := range dist {
		dist[c] /= float64(len(f.members))
	}
	return dist
}

// Classify implements Classifier.
func (f *Forest) Classify(vals []float64) int {
	dist := f.Distribution(vals)
	best, bestP := 0, dist[0]
	for c := 1; c < len(dist); c++ {
		if dist[c] > bestP {
			best, bestP = c, dist[c]
		}
	}
	return best
}

// Size returns the total node count across members.
func (f *Forest) Size() int {
	s := 0
	for _, t := range f.members {
		s += t.Size()
	}
	return s
}
