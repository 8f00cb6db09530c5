package mltree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadDataset builds a 2-feature task (positive iff both features are
// above 0.5) that needs a depth-2 tree but has positive first-level
// gain, unlike XOR, which C4.5's MDL-corrected numeric splits reject.
func quadDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset([]Attribute{
		{Name: "x", Kind: Numeric},
		{Name: "y", Kind: Numeric},
	}, []string{"neg", "pos"})
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		c := 0
		if x > 0.5 && y > 0.5 {
			c = 1
		}
		d.Add([]float64{x, y}, c)
	}
	return d
}

// nominalDataset: class = color unless shape overrides.
func nominalDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset([]Attribute{
		{Name: "color", Kind: Nominal, Values: []string{"red", "green", "blue"}},
		{Name: "shape", Kind: Nominal, Values: []string{"circle", "square"}},
		{Name: "size", Kind: Numeric},
	}, []string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		color := rng.Intn(3)
		shape := rng.Intn(2)
		size := rng.Float64() * 10
		class := color
		if shape == 1 && size > 5 {
			class = (color + 1) % 3
		}
		d.Add([]float64{float64(color), float64(shape), size}, class)
	}
	return d
}

func TestEntropy(t *testing.T) {
	if e := entropy([]float64{5, 5}); math.Abs(e-1) > 1e-12 {
		t.Errorf("entropy(5,5)=%v, want 1", e)
	}
	if e := entropy([]float64{10, 0}); e != 0 {
		t.Errorf("entropy(10,0)=%v, want 0", e)
	}
	if e := entropy(nil); e != 0 {
		t.Errorf("entropy(nil)=%v", e)
	}
	if e := entropy([]float64{1, 1, 1, 1}); math.Abs(e-2) > 1e-12 {
		t.Errorf("entropy uniform 4=%v, want 2", e)
	}
}

func TestJ48LearnsQuadrant(t *testing.T) {
	d := quadDataset(400, 1)
	model := NewJ48().Fit(d)
	conf := Evaluate(model, quadDataset(200, 2))
	if acc := conf.Accuracy(); acc < 0.95 {
		t.Errorf("J48 quadrant accuracy %.3f < 0.95", acc)
	}
}

func TestJ48LearnsNominal(t *testing.T) {
	d := nominalDataset(600, 1)
	model := NewJ48().Fit(d)
	conf := Evaluate(model, nominalDataset(300, 2))
	if acc := conf.Accuracy(); acc < 0.95 {
		t.Errorf("J48 nominal accuracy %.3f < 0.95", acc)
	}
}

func TestJ48PureLeafShortCircuit(t *testing.T) {
	d := NewDataset([]Attribute{{Name: "x", Kind: Numeric}}, []string{"only"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, 0)
	}
	tree := NewJ48().Fit(d).(*Tree)
	if tree.Size() != 1 {
		t.Errorf("pure dataset grew %d nodes", tree.Size())
	}
}

func TestJ48MissingValuesFallBack(t *testing.T) {
	d := quadDataset(400, 3)
	model := NewJ48().Fit(d)
	// Missing features must not panic and must return a valid class.
	c := model.Classify([]float64{Missing, Missing})
	if c != 0 && c != 1 {
		t.Errorf("class %d for all-missing", c)
	}
	dist := model.Distribution([]float64{Missing, 0.3})
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestJ48NominalUnseenValue(t *testing.T) {
	d := nominalDataset(200, 4)
	model := NewJ48().Fit(d)
	// Out-of-range nominal index falls back to node majority.
	c := model.Classify([]float64{99, 0, 1})
	if c < 0 || c > 2 {
		t.Errorf("class %d", c)
	}
}

func TestPruningShrinksTree(t *testing.T) {
	// Noisy labels: an unpruned tree overfits, pruning should shrink it.
	rng := rand.New(rand.NewSource(5))
	d := NewDataset([]Attribute{{Name: "x", Kind: Numeric}}, []string{"a", "b"})
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		c := 0
		if x > 0.5 {
			c = 1
		}
		if rng.Float64() < 0.25 { // label noise
			c = 1 - c
		}
		d.Add([]float64{x}, c)
	}
	unpruned := (&J48{MinLeaf: 2}).Fit(d).(*Tree)
	pruned := NewJ48().Fit(d).(*Tree)
	if pruned.Size() > unpruned.Size() {
		t.Errorf("pruned size %d > unpruned %d", pruned.Size(), unpruned.Size())
	}
	if pruned.Size() > 9 {
		t.Errorf("pruned tree still large: %d nodes", pruned.Size())
	}
	conf := Evaluate(pruned, d)
	if acc := conf.Accuracy(); acc < 0.7 {
		t.Errorf("pruned training accuracy %.3f", acc)
	}
}

func TestMaxDepth(t *testing.T) {
	d := quadDataset(400, 6)
	tree := (&J48{MinLeaf: 2, MaxDepth: 1}).Fit(d).(*Tree)
	if tree.Depth() > 2 {
		t.Errorf("depth %d with MaxDepth 1", tree.Depth())
	}
}

func TestRandomForestLearnsQuadrant(t *testing.T) {
	d := quadDataset(500, 7)
	f := (&RandomForest{Trees: 30, MinLeaf: 1, Seed: 7}).Fit(d)
	conf := Evaluate(f, quadDataset(250, 8))
	if acc := conf.Accuracy(); acc < 0.9 {
		t.Errorf("forest quadrant accuracy %.3f", acc)
	}
}

func TestRandomTreeDeterministicForSeed(t *testing.T) {
	d := nominalDataset(300, 9)
	t1 := NewRandomTree(11).Fit(d).(*Tree)
	t2 := NewRandomTree(11).Fit(d).(*Tree)
	for i := 0; i < 50; i++ {
		vals := d.Instances[i].Vals
		if t1.Classify(vals) != t2.Classify(vals) {
			t.Fatal("same-seed RandomTrees disagree")
		}
	}
}

func TestHoeffdingLearnsStream(t *testing.T) {
	h := NewHoeffdingTree([]Attribute{
		{Name: "x", Kind: Numeric},
	}, []string{"lo", "hi"})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		x := rng.Float64()
		c := 0
		if x > 0.6 {
			c = 1
		}
		h.Observe([]float64{x}, c)
	}
	ok := 0
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		want := 0
		if x > 0.6 {
			want = 1
		}
		if h.Classify([]float64{x}) == want {
			ok++
		}
	}
	if float64(ok)/500 < 0.9 {
		t.Errorf("hoeffding stream accuracy %.3f", float64(ok)/500)
	}
	if h.Size() <= 1 {
		t.Error("hoeffding tree never split")
	}
}

func TestHoeffdingNominal(t *testing.T) {
	attrs := []Attribute{{Name: "c", Kind: Nominal, Values: []string{"u", "v", "w"}}}
	h := NewHoeffdingTree(attrs, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := rng.Intn(3)
		h.Observe([]float64{float64(v)}, v)
	}
	for v := 0; v < 3; v++ {
		if got := h.Classify([]float64{float64(v)}); got != v {
			t.Errorf("class(%d)=%d", v, got)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	m := NewConfusion([]string{"c0", "c1", "c2"})
	m.Record(0, 0, 10) // exact
	m.Record(1, 2, 5)  // over
	m.Record(2, 1, 3)  // under by one
	m.Record(2, 0, 2)  // under by two
	if acc := m.Accuracy(); math.Abs(acc-0.5) > 1e-12 {
		t.Errorf("accuracy=%v", acc)
	}
	if eo := m.EOAccuracy(); math.Abs(eo-0.75) > 1e-12 {
		t.Errorf("eo=%v, want 0.75", eo)
	}
	if u := m.UnderWithinOne(); math.Abs(u-0.6) > 1e-12 {
		t.Errorf("underWithinOne=%v, want 0.6", u)
	}
	h := m.ErrorHistogram()
	if h[0] != 10 || h[1] != 5 || h[-1] != 3 || h[-2] != 2 {
		t.Errorf("histogram=%v", h)
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	m := NewConfusion([]string{"no", "yes"})
	m.Record(1, 1, 80) // TP
	m.Record(0, 1, 10) // FP
	m.Record(1, 0, 20) // FN
	m.Record(0, 0, 90) // TN
	if p := m.Precision(1); math.Abs(p-80.0/90) > 1e-12 {
		t.Errorf("precision=%v", p)
	}
	if r := m.Recall(1); math.Abs(r-0.8) > 1e-12 {
		t.Errorf("recall=%v", r)
	}
	p, r := 80.0/90, 0.8
	want := 2 * p * r / (p + r)
	if f := m.F1(1); math.Abs(f-want) > 1e-12 {
		t.Errorf("f1=%v, want %v", f, want)
	}
}

func TestCrossValidateCoversAllInstances(t *testing.T) {
	d := quadDataset(173, 12) // odd size to exercise uneven folds
	conf := CrossValidate(NewJ48(), d, 10, 1)
	if int(conf.Total()) != 173 {
		t.Errorf("CV classified %v instances, want 173", conf.Total())
	}
	if acc := conf.Accuracy(); acc < 0.85 {
		t.Errorf("CV accuracy %.3f", acc)
	}
}

func TestCrossValidateStratified(t *testing.T) {
	// 90/10 class imbalance: stratification keeps the rare class in CV.
	rng := rand.New(rand.NewSource(13))
	d := NewDataset([]Attribute{{Name: "x", Kind: Numeric}}, []string{"common", "rare"})
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			d.Add([]float64{5 + rng.Float64()}, 1)
		} else {
			d.Add([]float64{rng.Float64()}, 0)
		}
	}
	conf := CrossValidate(NewJ48(), d, 10, 1)
	if r := conf.Recall(1); r < 0.9 {
		t.Errorf("rare-class recall %.3f; stratification broken?", r)
	}
}

func TestBootstrapSameSize(t *testing.T) {
	d := quadDataset(100, 14)
	bag := d.Bootstrap(rand.New(rand.NewSource(1)))
	if bag.Len() != 100 {
		t.Errorf("bootstrap size %d", bag.Len())
	}
}

func TestZValue(t *testing.T) {
	// C4.5's CF=0.25 corresponds to z≈0.6745.
	if z := zValue(0.25); math.Abs(z-0.6745) > 0.001 {
		t.Errorf("z(0.25)=%v", z)
	}
	if z := zValue(0.05); math.Abs(z-1.6449) > 0.001 {
		t.Errorf("z(0.05)=%v", z)
	}
}

func TestErrorEstimateMonotonicInErrors(t *testing.T) {
	e1 := errorEstimate(100, 5, 0.25)
	e2 := errorEstimate(100, 10, 0.25)
	if e1 >= e2 {
		t.Errorf("errorEstimate not monotonic: %v >= %v", e1, e2)
	}
	if e1 <= 5 {
		t.Errorf("pessimistic estimate %v not above observed 5", e1)
	}
}

func TestGaussEst(t *testing.T) {
	var g gaussEst
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		g.add(v, 1)
	}
	if math.Abs(g.mean-5) > 1e-9 {
		t.Errorf("mean=%v", g.mean)
	}
	if math.Abs(g.std()-2.138) > 0.01 { // sample std
		t.Errorf("std=%v", g.std())
	}
	if g.min != 2 || g.max != 9 {
		t.Errorf("min/max=%v/%v", g.min, g.max)
	}
	if c := g.cdf(5); math.Abs(c-0.5) > 1e-9 {
		t.Errorf("cdf(mean)=%v", c)
	}
}

// Property: training accuracy of an unpruned J48 with MinLeaf=1 on
// consistent data (no duplicate feature vectors with different labels)
// is perfect.
func TestPropertyJ48FitsConsistentData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]string, 20)
		for i := range vals {
			vals[i] = string(rune('a' + i))
		}
		d := NewDataset([]Attribute{
			{Name: "x", Kind: Nominal, Values: vals},
			{Name: "y", Kind: Nominal, Values: vals},
		}, []string{"a", "b", "c"})
		seen := map[[2]int]bool{}
		for i := 0; i < 60; i++ {
			xi, yi := rng.Intn(20), rng.Intn(20)
			if seen[[2]int{xi, yi}] {
				continue
			}
			seen[[2]int{xi, yi}] = true
			c := (xi*3 + yi) % 3
			d.Add([]float64{float64(xi), float64(yi)}, c)
		}
		model := (&J48{MinLeaf: 1}).Fit(d)
		for i := range d.Instances {
			if model.Classify(d.Instances[i].Vals) != d.Instances[i].Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: distributions always sum to 1 and are non-negative.
func TestPropertyDistributionIsProbability(t *testing.T) {
	d := nominalDataset(300, 15)
	models := []Classifier{
		NewJ48().Fit(d),
		(&RandomForest{Trees: 30, MinLeaf: 1, Seed: 1}).Fit(d),
		HoeffdingLearner{}.Fit(d),
	}
	f := func(color8, shape8 uint8, size float64) bool {
		vals := []float64{float64(color8 % 3), float64(shape8 % 2), math.Mod(math.Abs(size), 10)}
		for _, m := range models {
			dist := m.Distribution(vals)
			sum := 0.0
			for _, p := range dist {
				if p < 0 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Classify agrees with argmax of Distribution for trees.
func TestPropertyClassifyMatchesDistribution(t *testing.T) {
	d := quadDataset(300, 16)
	tree := NewJ48().Fit(d).(*Tree)
	f := func(x, y float64) bool {
		vals := []float64{math.Mod(math.Abs(x), 1), math.Mod(math.Abs(y), 1)}
		dist := tree.Distribution(vals)
		best, bestP := 0, dist[0]
		for c := 1; c < len(dist); c++ {
			if dist[c] > bestP {
				best, bestP = c, dist[c]
			}
		}
		return tree.Classify(vals) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d := nominalDataset(300, 70)
	c1 := CrossValidate(NewJ48(), d, 5, 9)
	c2 := CrossValidate(NewJ48(), d, 5, 9)
	if c1.Accuracy() != c2.Accuracy() || c1.EOAccuracy() != c2.EOAccuracy() {
		t.Errorf("CV not deterministic for fixed seed: %v vs %v", c1, c2)
	}
	c3 := CrossValidate(NewJ48(), d, 5, 10)
	_ = c3 // different seed may legitimately differ; no assertion
}
