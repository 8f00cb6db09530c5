// Package mltree implements the decision-tree machinery OFC uses for
// per-invocation memory prediction and cache-benefit prediction (paper
// §5, §7.1): a C4.5-style learner (J48), RandomTree, a bagged
// RandomForest, and an incremental Hoeffding tree, together with
// dataset handling, k-fold cross-validation and the evaluation metrics
// the paper reports (exact accuracy, exact-or-over accuracy,
// precision/recall/F-measure).
//
// Everything is implemented from scratch on the standard library; the
// algorithms mirror the Weka implementations the paper used closely
// enough to reproduce Table 1 and Figures 5–6.
package mltree

import (
	"fmt"
	"math"
	"math/rand"
)

// AttrKind distinguishes numeric from nominal attributes.
type AttrKind int

const (
	// Numeric attributes hold real values and split on thresholds.
	Numeric AttrKind = iota
	// Nominal attributes hold one of a fixed set of categories and
	// split multiway.
	Nominal
)

// Attribute describes one feature column.
type Attribute struct {
	Name   string
	Kind   AttrKind
	Values []string // category names for Nominal attributes
}

// NumValues returns the category count of a nominal attribute.
func (a *Attribute) NumValues() int { return len(a.Values) }

// Missing is the in-band encoding for an absent value.
var Missing = math.NaN()

// IsMissing reports whether v encodes a missing value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Instance is one labeled example: feature values (nominal categories
// encoded as their index), a class index and a weight.
type Instance struct {
	Vals   []float64
	Class  int
	Weight float64
}

// Dataset is a set of instances over a fixed schema. Classes are the
// ordered label names; "ordered" matters for the exact-or-over metric,
// where class k means the k-th memory interval.
type Dataset struct {
	Attrs     []Attribute
	Classes   []string
	Instances []Instance
}

// NewDataset returns an empty dataset with the given schema.
func NewDataset(attrs []Attribute, classes []string) *Dataset {
	return &Dataset{Attrs: attrs, Classes: classes}
}

// Add appends an instance with weight 1.
func (d *Dataset) Add(vals []float64, class int) {
	d.AddWeighted(vals, class, 1)
}

// AddWeighted appends an instance with the given weight.
func (d *Dataset) AddWeighted(vals []float64, class int, weight float64) {
	if len(vals) != len(d.Attrs) {
		panic(fmt.Sprintf("mltree: %d values for %d attributes", len(vals), len(d.Attrs)))
	}
	if class < 0 || class >= len(d.Classes) {
		panic(fmt.Sprintf("mltree: class %d out of range", class))
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	d.Instances = append(d.Instances, Instance{Vals: cp, Class: class, Weight: weight})
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// majorityClass returns the index of the heaviest class, breaking ties
// toward the lower index for determinism.
func majorityClass(counts []float64) int {
	best, bestW := 0, counts[0]
	for c := 1; c < len(counts); c++ {
		if counts[c] > bestW {
			best, bestW = c, counts[c]
		}
	}
	return best
}

// entropy computes the Shannon entropy of a weighted class histogram.
func entropy(counts []float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var e float64
	for _, c := range counts {
		if c > 0 {
			p := c / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// Subset returns a dataset view holding the given instances (shared
// value slices, fresh instance slice).
func (d *Dataset) Subset(insts []Instance) *Dataset {
	return &Dataset{Attrs: d.Attrs, Classes: d.Classes, Instances: insts}
}

// Bootstrap returns a bagged sample of the same size drawn with
// replacement.
func (d *Dataset) Bootstrap(rng *rand.Rand) *Dataset {
	out := NewDataset(d.Attrs, d.Classes)
	out.Instances = make([]Instance, 0, len(d.Instances))
	for i := 0; i < len(d.Instances); i++ {
		out.Instances = append(out.Instances, d.Instances[rng.Intn(len(d.Instances))])
	}
	return out
}

// Classifier is a trained model that predicts a class for a feature
// vector.
type Classifier interface {
	// Classify returns the predicted class index for vals.
	Classify(vals []float64) int
	// Distribution returns the predicted class probabilities.
	Distribution(vals []float64) []float64
}

// Learner builds a Classifier from a dataset.
type Learner interface {
	Fit(d *Dataset) Classifier
	Name() string
}
