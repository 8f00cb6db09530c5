package mltree

import (
	"fmt"
	"math/rand"
)

// Confusion is a confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Counts [][]float64
}

// NewConfusion returns an empty matrix over the given classes.
func NewConfusion(classes []string) *Confusion {
	m := &Confusion{Counts: make([][]float64, len(classes))}
	for i := range m.Counts {
		m.Counts[i] = make([]float64, len(classes))
	}
	return m
}

// Record adds one (actual, predicted) observation with weight w.
func (m *Confusion) Record(actual, predicted int, w float64) {
	m.Counts[actual][predicted] += w
}

// Total is the summed weight of all observations.
func (m *Confusion) Total() float64 {
	var t float64
	for _, row := range m.Counts {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Accuracy is the fraction of exact predictions.
func (m *Confusion) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	var ok float64
	for i := range m.Counts {
		ok += m.Counts[i][i]
	}
	return ok / t
}

// EOAccuracy is the paper's "exact-or-over" fraction: predictions whose
// class index is greater than or equal to the true index. It is only
// meaningful for ordered classes (memory intervals).
func (m *Confusion) EOAccuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	var ok float64
	for a := range m.Counts {
		for p := a; p < len(m.Counts[a]); p++ {
			ok += m.Counts[a][p]
		}
	}
	return ok / t
}

// UnderWithinOne is the fraction of *underpredictions* that land
// exactly one interval below the truth — the second maturation
// criterion of §5.3.
func (m *Confusion) UnderWithinOne() float64 {
	var under, withinOne float64
	for a := range m.Counts {
		for p := 0; p < a; p++ {
			under += m.Counts[a][p]
			if p == a-1 {
				withinOne += m.Counts[a][p]
			}
		}
	}
	if under == 0 {
		return 1
	}
	return withinOne / under
}

// Precision returns the precision for class c.
func (m *Confusion) Precision(c int) float64 {
	var predicted float64
	for a := range m.Counts {
		predicted += m.Counts[a][c]
	}
	if predicted == 0 {
		return 0
	}
	return m.Counts[c][c] / predicted
}

// Recall returns the recall for class c.
func (m *Confusion) Recall(c int) float64 {
	var actual float64
	for _, v := range m.Counts[c] {
		actual += v
	}
	if actual == 0 {
		return 0
	}
	return m.Counts[c][c] / actual
}

// F1 returns the F-measure for class c.
func (m *Confusion) F1(c int) float64 {
	p, r := m.Precision(c), m.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// ErrorHistogram returns, for every (actual, predicted) pair, the
// signed class-index difference predicted-actual and its weight — the
// raw material of the paper's Figure 5 once scaled by the interval
// size.
func (m *Confusion) ErrorHistogram() map[int]float64 {
	h := make(map[int]float64)
	for a := range m.Counts {
		for p, w := range m.Counts[a] {
			if w > 0 {
				h[p-a] += w
			}
		}
	}
	return h
}

// String renders summary statistics.
func (m *Confusion) String() string {
	return fmt.Sprintf("Confusion{n=%.0f acc=%.4f eo=%.4f}", m.Total(), m.Accuracy(), m.EOAccuracy())
}

// CrossValidate runs k-fold cross-validation of learner on d and
// returns the pooled confusion matrix. Folds are stratified per class
// so small classes appear in every fold, matching Weka's evaluator.
func CrossValidate(learner Learner, d *Dataset, k int, seed int64) *Confusion {
	if k < 2 {
		panic("mltree: k-fold requires k >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	// Stratify: group instance indices by class, shuffle, deal round-robin.
	byClass := make([][]int, len(d.Classes))
	for i := range d.Instances {
		c := d.Instances[i].Class
		byClass[c] = append(byClass[c], i)
	}
	folds := make([][]int, k)
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for j, idx := range idxs {
			folds[j%k] = append(folds[j%k], idx)
		}
	}
	conf := NewConfusion(d.Classes)
	inFold := make([]int, len(d.Instances))
	for f, fold := range folds {
		for _, idx := range fold {
			inFold[idx] = f
		}
	}
	for f := 0; f < k; f++ {
		train := make([]Instance, 0, len(d.Instances)-len(folds[f]))
		for i := range d.Instances {
			if inFold[i] != f {
				train = append(train, d.Instances[i])
			}
		}
		if len(train) == 0 {
			continue
		}
		model := learner.Fit(d.Subset(train))
		for _, idx := range folds[f] {
			inst := &d.Instances[idx]
			conf.Record(inst.Class, model.Classify(inst.Vals), inst.Weight)
		}
	}
	return conf
}

// Evaluate classifies every instance of test with model and returns the
// confusion matrix.
func Evaluate(model Classifier, test *Dataset) *Confusion {
	conf := NewConfusion(test.Classes)
	for i := range test.Instances {
		inst := &test.Instances[i]
		conf.Record(inst.Class, model.Classify(inst.Vals), inst.Weight)
	}
	return conf
}
