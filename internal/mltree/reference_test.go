package mltree

import (
	"math"
	"math/rand"
	"sort"
)

// The reference tree builder: the naive recursion the training kernel
// replaced, kept as the oracle of the differential and fuzz tests. It
// copies and sorts the node's instances per (node, attribute) and
// allocates every histogram afresh, which makes it slow and obviously
// right. treeBuilder must produce the same trees bit for bit.

type refBuilder struct {
	d           *Dataset
	minLeaf     float64
	maxDepth    int
	attrSampler func() []int
}

func refClassCounts(insts []Instance, numClasses int) []float64 {
	counts := make([]float64, numClasses)
	for i := range insts {
		counts[insts[i].Class] += insts[i].Weight
	}
	return counts
}

// refSortByAttr sorts instances by the given numeric attribute, missing
// values last.
func refSortByAttr(insts []Instance, attr int) {
	sort.SliceStable(insts, func(i, j int) bool {
		a, b := insts[i].Vals[attr], insts[j].Vals[attr]
		switch {
		case IsMissing(a):
			return false
		case IsMissing(b):
			return true
		default:
			return a < b
		}
	})
}

func refEvaluateSplit(d *Dataset, insts []Instance, attr int, baseEntropy float64, minLeaf float64) splitCandidate {
	cand := splitCandidate{attr: attr}
	numClasses := len(d.Classes)
	if d.Attrs[attr].Kind == Nominal {
		k := d.Attrs[attr].NumValues()
		counts := make([][]float64, k)
		for i := range counts {
			counts[i] = make([]float64, numClasses)
		}
		var total float64
		for i := range insts {
			v := insts[i].Vals[attr]
			if IsMissing(v) {
				continue
			}
			counts[int(v)][insts[i].Class] += insts[i].Weight
			total += insts[i].Weight
		}
		if total == 0 {
			return cand
		}
		nonEmpty := 0
		var cond, splitInfo float64
		for _, c := range counts {
			var w float64
			for _, x := range c {
				w += x
			}
			if w > 0 {
				nonEmpty++
				p := w / total
				cond += p * entropy(c)
				splitInfo -= p * math.Log2(p)
			}
		}
		if nonEmpty < 2 || splitInfo <= 0 {
			return cand
		}
		cand.gain = baseEntropy - cond
		cand.gainRatio = cand.gain / splitInfo
		cand.valid = cand.gain > 1e-10
		return cand
	}

	sorted := make([]Instance, len(insts))
	copy(sorted, insts)
	refSortByAttr(sorted, attr)
	n := len(sorted)
	for n > 0 && IsMissing(sorted[n-1].Vals[attr]) {
		n--
	}
	if n < 2 {
		return cand
	}
	sorted = sorted[:n]
	var total float64
	right := make([]float64, numClasses)
	for i := range sorted {
		right[sorted[i].Class] += sorted[i].Weight
		total += sorted[i].Weight
	}
	left := make([]float64, numClasses)
	var leftW float64
	bestGain, bestThr := -1.0, 0.0
	candidates := 0
	for i := 0; i < len(sorted)-1; i++ {
		w := sorted[i].Weight
		left[sorted[i].Class] += w
		right[sorted[i].Class] -= w
		leftW += w
		if sorted[i].Vals[attr] == sorted[i+1].Vals[attr] {
			continue
		}
		rightW := total - leftW
		if leftW < minLeaf || rightW < minLeaf {
			continue
		}
		candidates++
		cond := leftW/total*entropy(left) + rightW/total*entropy(right)
		gain := baseEntropy - cond
		if gain > bestGain {
			bestGain = gain
			bestThr = (sorted[i].Vals[attr] + sorted[i+1].Vals[attr]) / 2
		}
	}
	if candidates > 0 {
		bestGain -= math.Log2(float64(candidates)) / total
	}
	if bestGain <= 1e-10 {
		return cand
	}
	var lw float64
	for i := range sorted {
		if sorted[i].Vals[attr] <= bestThr {
			lw += sorted[i].Weight
		}
	}
	pl := lw / total
	splitInfo := 0.0
	if pl > 0 && pl < 1 {
		splitInfo = -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
	}
	if splitInfo <= 0 {
		return cand
	}
	cand.threshold = bestThr
	cand.gain = bestGain
	cand.gainRatio = bestGain / splitInfo
	cand.valid = true
	return cand
}

func (b *refBuilder) build(insts []Instance, depth int) *node {
	counts := refClassCounts(insts, len(b.d.Classes))
	nd := &node{attr: -1, counts: counts, majority: majorityClass(counts)}
	var total float64
	classesPresent := 0
	for _, c := range counts {
		total += c
		if c > 0 {
			classesPresent++
		}
	}
	if classesPresent <= 1 || total < 2*b.minLeaf || (b.maxDepth > 0 && depth >= b.maxDepth) {
		return nd
	}
	baseEntropy := entropy(counts)

	var candidates []int
	if b.attrSampler != nil {
		candidates = b.attrSampler()
	} else {
		candidates = make([]int, len(b.d.Attrs))
		for i := range candidates {
			candidates[i] = i
		}
	}

	var best splitCandidate
	var gains []splitCandidate
	for _, a := range candidates {
		c := refEvaluateSplit(b.d, insts, a, baseEntropy, b.minLeaf)
		if c.valid {
			gains = append(gains, c)
		}
	}
	if len(gains) == 0 {
		return nd
	}
	var avg float64
	for _, g := range gains {
		avg += g.gain
	}
	avg /= float64(len(gains))
	bestRatio := -1.0
	for _, g := range gains {
		if g.gain >= avg-1e-12 && g.gainRatio > bestRatio {
			bestRatio = g.gainRatio
			best = g
		}
	}
	if !best.valid {
		return nd
	}

	nd.attr = best.attr
	nd.threshold = best.threshold
	if b.d.Attrs[best.attr].Kind == Numeric {
		var left, right []Instance
		for i := range insts {
			v := insts[i].Vals[best.attr]
			if IsMissing(v) {
				continue
			}
			if v <= best.threshold {
				left = append(left, insts[i])
			} else {
				right = append(right, insts[i])
			}
		}
		if len(left) == 0 || len(right) == 0 {
			nd.attr = -1
			return nd
		}
		nd.children = []*node{b.build(left, depth+1), b.build(right, depth+1)}
	} else {
		k := b.d.Attrs[best.attr].NumValues()
		parts := make([][]Instance, k)
		for i := range insts {
			v := insts[i].Vals[best.attr]
			if IsMissing(v) {
				continue
			}
			parts[int(v)] = append(parts[int(v)], insts[i])
		}
		nd.children = make([]*node, k)
		for i, p := range parts {
			if len(p) > 0 {
				nd.children[i] = b.build(p, depth+1)
			}
		}
	}
	return nd
}

// refJ48Fit is J48.Fit over the reference builder.
func refJ48Fit(j *J48, d *Dataset) *Tree {
	minLeaf := j.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	b := &refBuilder{d: d, minLeaf: minLeaf, maxDepth: j.MaxDepth}
	root := b.build(d.Instances, 0)
	if j.Confidence > 0 {
		prune(root, j.Confidence, d.Attrs)
	}
	return &Tree{root: root, attrs: d.Attrs, n: d.Len()}
}

// refRandomTreeFit is RandomTree.Fit over the reference builder.
func refRandomTreeFit(r *RandomTree, d *Dataset) *Tree {
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
	b := &refBuilder{d: d, minLeaf: minLeaf}
	b.attrSampler = func() []int {
		perm := rng.Perm(len(d.Attrs))
		return perm[:k]
	}
	return &Tree{root: b.build(d.Instances, 0), attrs: d.Attrs, n: d.Len()}
}

// refForestFit is RandomForest.Fit over the reference builder.
func refForestFit(r *RandomForest, d *Dataset) *Forest {
	n := r.Trees
	if n <= 0 {
		n = 30
	}
	rng := rand.New(rand.NewSource(r.Seed))
	f := &Forest{classes: len(d.Classes)}
	for i := 0; i < n; i++ {
		bag := d.Bootstrap(rng)
		rt := &RandomTree{K: r.K, MinLeaf: r.MinLeaf, Seed: rng.Int63()}
		f.members = append(f.members, refRandomTreeFit(rt, bag))
	}
	return f
}
