package mltree

import (
	"math"
)

// HoeffdingTree is an incremental VFDT learner (Domingos & Hulten,
// as implemented in Weka/MOA). It learns from a stream: each Observe
// call may grow the tree when the Hoeffding bound separates the best
// split from the runner-up. Numeric attributes are summarized by
// per-class Gaussian estimators and split on sampled thresholds.
type HoeffdingTree struct {
	attrs   []Attribute
	classes []string

	// GracePeriod is the number of examples a leaf accumulates
	// between split attempts.
	GracePeriod int
	// SplitConfidence is the δ of the Hoeffding bound.
	SplitConfidence float64
	// TieThreshold breaks near-ties (τ).
	TieThreshold float64

	root *hNode
}

// NewHoeffdingTree returns an empty incremental tree with MOA-like
// defaults.
func NewHoeffdingTree(attrs []Attribute, classes []string) *HoeffdingTree {
	h := &HoeffdingTree{
		attrs:           attrs,
		classes:         classes,
		GracePeriod:     25,
		SplitConfidence: 1e-2,
		TieThreshold:    0.1,
	}
	h.root = newHLeaf(len(attrs), len(classes), attrs)
	return h
}

// Name identifies the algorithm in result tables.
func (h *HoeffdingTree) Name() string { return "HoeffdingTree" }

// hNode is a node of the Hoeffding tree.
type hNode struct {
	// internal node
	attr      int
	threshold float64
	children  []*hNode

	// leaf statistics
	counts    []float64
	sinceEval int
	nomCounts [][][]float64 // [attr][value][class]
	gauss     [][]gaussEst  // [attr][class]
	// Adaptive naive Bayes bookkeeping (MOA's NBAdaptive): prequential
	// correct counts of the majority-class and NB predictors.
	mcCorrect, nbCorrect float64
}

type gaussEst struct {
	n, mean, m2, min, max float64
}

func (g *gaussEst) add(v, w float64) {
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.n += w
	delta := v - g.mean
	g.mean += delta * w / g.n
	g.m2 += w * delta * (v - g.mean)
}

func (g *gaussEst) std() float64 {
	if g.n < 2 {
		return 0
	}
	return math.Sqrt(g.m2 / (g.n - 1))
}

// cdf is the Gaussian CDF at v.
func (g *gaussEst) cdf(v float64) float64 {
	sd := g.std()
	if sd == 0 {
		if v < g.mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((v-g.mean)/(sd*math.Sqrt2)))
}

func newHLeaf(numAttrs, numClasses int, attrs []Attribute) *hNode {
	n := &hNode{attr: -1, counts: make([]float64, numClasses)}
	n.nomCounts = make([][][]float64, numAttrs)
	n.gauss = make([][]gaussEst, numAttrs)
	for a := range attrs {
		if attrs[a].Kind == Nominal {
			vs := attrs[a].NumValues()
			n.nomCounts[a] = make([][]float64, vs)
			for v := 0; v < vs; v++ {
				n.nomCounts[a][v] = make([]float64, numClasses)
			}
		} else {
			n.gauss[a] = make([]gaussEst, numClasses)
		}
	}
	return n
}

func (n *hNode) isLeaf() bool { return n.attr < 0 }

// Observe incorporates one labeled example.
func (h *HoeffdingTree) Observe(vals []float64, class int) {
	leaf := h.root
	for !leaf.isLeaf() {
		v := vals[leaf.attr]
		if IsMissing(v) {
			break
		}
		if h.attrs[leaf.attr].Kind == Numeric {
			if v <= leaf.threshold {
				leaf = leaf.children[0]
			} else {
				leaf = leaf.children[1]
			}
		} else {
			idx := int(v)
			if idx < 0 || idx >= len(leaf.children) {
				break
			}
			leaf = leaf.children[idx]
		}
	}
	if !leaf.isLeaf() {
		return // missing value landed on an internal node; counted nowhere
	}
	// Prequential evaluation of the two leaf predictors (NBAdaptive).
	var leafTotal float64
	for _, c := range leaf.counts {
		leafTotal += c
	}
	if leafTotal > 0 {
		if majorityClass(leaf.counts) == class {
			leaf.mcCorrect++
		}
		if leafTotal >= 10 {
			nb := h.naiveBayes(leaf, vals, leafTotal)
			if argmax(nb) == class {
				leaf.nbCorrect++
			}
		}
	}
	leaf.counts[class]++
	for a := range h.attrs {
		v := vals[a]
		if IsMissing(v) {
			continue
		}
		if h.attrs[a].Kind == Nominal {
			leaf.nomCounts[a][int(v)][class]++
		} else {
			leaf.gauss[a][class].add(v, 1)
		}
	}
	leaf.sinceEval++
	if leaf.sinceEval >= h.GracePeriod {
		leaf.sinceEval = 0
		h.trySplit(leaf)
	}
}

// hoeffdingBound is ε = sqrt(R² ln(1/δ) / 2n) with R = log2(numClasses).
func (h *HoeffdingTree) hoeffdingBound(n float64) float64 {
	r := math.Log2(float64(len(h.classes)))
	if r < 1 {
		r = 1
	}
	return math.Sqrt(r * r * math.Log(1/h.SplitConfidence) / (2 * n))
}

type hSplit struct {
	attr      int
	threshold float64
	gain      float64
	valid     bool
}

func (h *HoeffdingTree) trySplit(leaf *hNode) {
	var total float64
	nonZero := 0
	for _, c := range leaf.counts {
		total += c
		if c > 0 {
			nonZero++
		}
	}
	if nonZero <= 1 || total < 2 {
		return
	}
	base := entropy(leaf.counts)
	best, second := hSplit{gain: -1}, hSplit{gain: -1}
	for a := range h.attrs {
		s := h.evalLeafSplit(leaf, a, base, total)
		if !s.valid {
			continue
		}
		if s.gain > best.gain {
			second = best
			best = s
		} else if s.gain > second.gain {
			second = s
		}
	}
	if !best.valid {
		return
	}
	eps := h.hoeffdingBound(total)
	secondGain := 0.0
	if second.valid {
		secondGain = second.gain
	}
	if best.gain-secondGain > eps || eps < h.TieThreshold {
		h.split(leaf, best)
	}
}

func (h *HoeffdingTree) evalLeafSplit(leaf *hNode, attr int, base, total float64) hSplit {
	s := hSplit{attr: attr}
	if h.attrs[attr].Kind == Nominal {
		var cond, seen float64
		nonEmpty := 0
		for _, classCounts := range leaf.nomCounts[attr] {
			var w float64
			for _, x := range classCounts {
				w += x
			}
			if w > 0 {
				nonEmpty++
				cond += w / total * entropy(classCounts)
				seen += w
			}
		}
		if nonEmpty < 2 || seen == 0 {
			return s
		}
		s.gain = base - cond
		s.valid = s.gain > 1e-10
		return s
	}
	// Numeric: sample 10 thresholds between the observed global range,
	// estimating left/right class weights from the per-class Gaussians.
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := range leaf.gauss[attr] {
		g := &leaf.gauss[attr][c]
		if g.n > 0 {
			if g.min < lo {
				lo = g.min
			}
			if g.max > hi {
				hi = g.max
			}
		}
	}
	if !(hi > lo) {
		return s
	}
	numClasses := len(h.classes)
	bestGain, bestThr := -1.0, 0.0
	for i := 1; i <= 10; i++ {
		thr := lo + (hi-lo)*float64(i)/11
		left := make([]float64, numClasses)
		right := make([]float64, numClasses)
		var lw, rw float64
		for c := 0; c < numClasses; c++ {
			g := &leaf.gauss[attr][c]
			if g.n == 0 {
				continue
			}
			p := g.cdf(thr)
			left[c] = g.n * p
			right[c] = g.n * (1 - p)
			lw += left[c]
			rw += right[c]
		}
		if lw < 1 || rw < 1 {
			continue
		}
		tot := lw + rw
		gain := base - (lw/tot*entropy(left) + rw/tot*entropy(right))
		if gain > bestGain {
			bestGain, bestThr = gain, thr
		}
	}
	if bestGain <= 1e-10 {
		return s
	}
	s.gain = bestGain
	s.threshold = bestThr
	s.valid = true
	return s
}

func (h *HoeffdingTree) split(leaf *hNode, s hSplit) {
	numClasses := len(h.classes)
	leaf.attr = s.attr
	leaf.threshold = s.threshold
	if h.attrs[s.attr].Kind == Numeric {
		l := newHLeaf(len(h.attrs), numClasses, h.attrs)
		r := newHLeaf(len(h.attrs), numClasses, h.attrs)
		// Seed child class counts from the Gaussian estimates so early
		// predictions at fresh leaves are sensible.
		for c := 0; c < numClasses; c++ {
			g := &leaf.gauss[s.attr][c]
			if g.n > 0 {
				p := g.cdf(s.threshold)
				l.counts[c] = g.n * p
				r.counts[c] = g.n * (1 - p)
			}
		}
		leaf.children = []*hNode{l, r}
	} else {
		vs := h.attrs[s.attr].NumValues()
		leaf.children = make([]*hNode, vs)
		for v := 0; v < vs; v++ {
			child := newHLeaf(len(h.attrs), numClasses, h.attrs)
			copy(child.counts, leaf.nomCounts[s.attr][v])
			leaf.children[v] = child
		}
	}
	leaf.nomCounts = nil
	leaf.gauss = nil
}

// Classify implements Classifier.
func (h *HoeffdingTree) Classify(vals []float64) int {
	d := h.Distribution(vals)
	best, bestP := 0, d[0]
	for c := 1; c < len(d); c++ {
		if d[c] > bestP {
			best, bestP = c, d[c]
		}
	}
	return best
}

// Distribution implements Classifier. Leaves classify with adaptive
// naive Bayes over their sufficient statistics (Weka/MOA's default
// HoeffdingTree leaf predictor), which is what gives VFDT usable
// accuracy before the Hoeffding bound admits splits.
func (h *HoeffdingTree) Distribution(vals []float64) []float64 {
	cur := h.root
	last := cur
	for !cur.isLeaf() {
		v := vals[cur.attr]
		if IsMissing(v) {
			break
		}
		if h.attrs[cur.attr].Kind == Numeric {
			if v <= cur.threshold {
				cur = cur.children[0]
			} else {
				cur = cur.children[1]
			}
		} else {
			idx := int(v)
			if idx < 0 || idx >= len(cur.children) {
				break
			}
			cur = cur.children[idx]
		}
		if cur.counts != nil {
			last = cur
		}
	}
	src := cur
	if src.counts == nil {
		src = last
	}
	var total float64
	for _, c := range src.counts {
		total += c
	}
	dist := make([]float64, len(h.classes))
	if total == 0 {
		dist[0] = 1
		return dist
	}
	if src.isLeaf() && src.gauss != nil && total >= 10 && src.nbCorrect > src.mcCorrect {
		return h.naiveBayes(src, vals, total)
	}
	for c, w := range src.counts {
		dist[c] = w / total
	}
	return dist
}

// argmax returns the index of the largest value.
func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// naiveBayes scores classes at a leaf: log P(c) + Σ log P(x_a | c)
// with Gaussian likelihoods for numeric attributes and Laplace-
// smoothed frequencies for nominal ones.
func (h *HoeffdingTree) naiveBayes(leaf *hNode, vals []float64, total float64) []float64 {
	numClasses := len(h.classes)
	logp := make([]float64, numClasses)
	maxLog := math.Inf(-1)
	for c := 0; c < numClasses; c++ {
		if leaf.counts[c] == 0 {
			logp[c] = math.Inf(-1)
			continue
		}
		lp := math.Log(leaf.counts[c] / total)
		for a := range h.attrs {
			v := vals[a]
			if IsMissing(v) {
				continue
			}
			if h.attrs[a].Kind == Nominal {
				counts := leaf.nomCounts[a]
				idx := int(v)
				if idx >= 0 && idx < len(counts) {
					k := float64(len(counts))
					lp += math.Log((counts[idx][c] + 1) / (leaf.counts[c] + k))
				}
				continue
			}
			g := &leaf.gauss[a][c]
			if g.n < 2 {
				continue
			}
			sd := g.std()
			if sd <= 0 {
				sd = math.Abs(g.mean)*1e-3 + 1e-9
			}
			z := (v - g.mean) / sd
			lp += -0.5*z*z - math.Log(sd)
		}
		logp[c] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	dist := make([]float64, numClasses)
	var sum float64
	for c, lp := range logp {
		if math.IsInf(lp, -1) {
			continue
		}
		dist[c] = math.Exp(lp - maxLog)
		sum += dist[c]
	}
	if sum == 0 {
		for c, w := range leaf.counts {
			dist[c] = w / total
		}
		return dist
	}
	for c := range dist {
		dist[c] /= sum
	}
	return dist
}

// Size returns the node count.
func (h *HoeffdingTree) Size() int { return hSize(h.root) }

func hSize(n *hNode) int {
	if n.isLeaf() {
		return 1
	}
	s := 1
	for _, c := range n.children {
		if c != nil {
			s += hSize(c)
		}
	}
	return s
}

// HoeffdingLearner adapts HoeffdingTree to the batch Learner interface
// by streaming the dataset once.
type HoeffdingLearner struct{}

// Name implements Learner.
func (HoeffdingLearner) Name() string { return "HoeffdingTree" }

// Fit implements Learner.
func (HoeffdingLearner) Fit(d *Dataset) Classifier {
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	for i := range d.Instances {
		h.Observe(d.Instances[i].Vals, d.Instances[i].Class)
	}
	return h
}
