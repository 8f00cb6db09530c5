package mltree

import (
	"math"
	"slices"
)

// splitCandidate is the outcome of evaluating one attribute at a node.
type splitCandidate struct {
	attr      int
	threshold float64
	gain      float64
	gainRatio float64
	valid     bool
}

// treeBuilder grows one tree for J48 and RandomTree (DESIGN.md §15,
// "Training").
//
// The training rows are laid out column-wise and every numeric
// attribute's row indices are stably sorted once, missing values last.
// A node is the same segment [lo, lo+n) of every index array: rows
// holds its rows in dataset order, sorted[a] the same rows in attribute
// a's order. A split stably partitions each segment among the
// children, and a stable partition of a stably sorted sequence is the
// stable sort of the partition, so a child's segments are in the order
// a fresh sort of its rows would give. Every histogram and weight sum
// is therefore accumulated in the order a per-node copy-and-sort
// visits the rows, and thresholds, gains, tie-breaks and counts are
// bit-identical to that (reference_test.go holds it as the oracle).
//
// Everything but the nodes and the counts they keep is scratch owned
// by the builder and reused down the recursion: a node finishes
// evaluating its candidates and partitioning before it recurses.
type treeBuilder struct {
	// Set by the learner; fit fills in the rest.
	minLeaf  float64
	maxDepth int // 0 = unlimited
	// attrSampler, when non-nil, returns the candidate attribute set
	// for a node (RandomTree's per-node random subspace). It is called
	// once per node that gets as far as choosing a split, in DFS
	// pre-order.
	attrSampler func() []int

	attrs      []Attribute
	numClasses int

	// Training rows, column-wise.
	vals   [][]float64 // vals[attr][row]
	class  []int32
	weight []float64

	// Row-index arrays, partitioned in step.
	rows   []int32   // dataset order
	sorted [][]int32 // per numeric attribute (nil for nominal ones)

	// Scratch.
	allAttrs    []int            // J48's candidate set: every attribute
	gains       []splitCandidate // valid candidates of the current node
	seen        []bool           // per class: has a row in the current node
	present     []int32          // those classes, ascending
	left, right []float64        // numeric scan histograms
	nomCounts   []float64        // nominal scan: NumValues × numClasses
	dest        []int32          // per row: child it goes to, -1 = dropped
	tmp         []int32          // partition buffer
	cursor      []int            // per child: next write position in tmp
	sizes       []int            // stack of child sizes, one frame per split in progress
}

// fit grows the tree for d. order, when non-nil, points at the column
// orders an earlier fit left there: the sorts start from them and the
// new orders replace them (see presort).
//
// Nothing is laid out before the root is known to need a split: a
// function whose invocations all land in one class refits to a single
// leaf, and that must cost one pass over the rows and nothing else.
func (b *treeBuilder) fit(d *Dataset, order *[][]int32) *node {
	counts := make([]float64, len(d.Classes))
	for i := range d.Instances {
		counts[d.Instances[i].Class] += d.Instances[i].Weight
	}
	if b.stops(counts, 0) {
		return &node{attr: -1, counts: counts, majority: majorityClass(counts)}
	}
	b.layout(d, order)
	return b.build(0, len(d.Instances), 0)
}

// stops reports whether a node with the given class histogram stays a
// leaf without looking at any attribute.
func (b *treeBuilder) stops(counts []float64, depth int) bool {
	var total float64
	classesPresent := 0
	for _, c := range counts {
		total += c
		if c > 0 {
			classesPresent++
		}
	}
	return classesPresent <= 1 || total < 2*b.minLeaf || (b.maxDepth > 0 && depth >= b.maxDepth)
}

// layout copies d's rows into columns, sorts the numeric ones and sizes
// the scratch.
func (b *treeBuilder) layout(d *Dataset, order *[][]int32) {
	n, numAttrs, numClasses := len(d.Instances), len(d.Attrs), len(d.Classes)
	b.attrs, b.numClasses = d.Attrs, numClasses
	b.vals = make([][]float64, numAttrs)
	b.class = make([]int32, n)
	b.weight = make([]float64, n)
	b.rows = make([]int32, n)
	b.sorted = make([][]int32, numAttrs)

	b.allAttrs = make([]int, numAttrs)
	b.gains = make([]splitCandidate, 0, numAttrs)
	b.seen = make([]bool, numClasses)
	b.present = make([]int32, 0, numClasses)
	b.left = make([]float64, numClasses)
	b.right = make([]float64, numClasses)
	b.dest = make([]int32, n)
	b.tmp = make([]int32, n)

	cols := make([]float64, numAttrs*n)
	for a := range b.vals {
		b.vals[a], cols = cols[:n:n], cols[n:]
		b.allAttrs[a] = a
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		for a, v := range inst.Vals {
			b.vals[a][i] = v
		}
		b.class[i] = int32(inst.Class)
		b.weight[i] = inst.Weight
		b.rows[i] = int32(i)
	}
	var prev [][]int32
	if order != nil {
		prev = *order
		*order = make([][]int32, numAttrs)
	}
	fanout := 2
	for a := range d.Attrs {
		if d.Attrs[a].Kind == Nominal {
			fanout = max(fanout, d.Attrs[a].NumValues())
			continue
		}
		var start []int32
		if a < len(prev) {
			start = prev[a]
		}
		b.sorted[a] = presort(b.vals[a], start)
		if order != nil {
			// build partitions b.sorted; the next fit wants it whole.
			(*order)[a] = slices.Clone(b.sorted[a])
		}
	}
	b.nomCounts = make([]float64, fanout*numClasses)
	b.cursor = make([]int, fanout)
}

// presort returns col's row indices by ascending value, missing last,
// equal values in row order: the order a stable sort of the rows gives.
// The comparator breaks ties by row itself, so the order is total and
// the result does not depend on where the sort starts. That lets it
// start from prev, the result for an earlier and shorter col (any
// permutation of its rows will do), followed by the new rows: when col
// is that column with rows appended, the start is sorted but for its
// tail, and the insertion-sort blocks and ordered-run merges of
// SortStableFunc do a fraction of the comparisons a sort from row
// order needs.
func presort(col []float64, prev []int32) []int32 {
	if len(prev) > len(col) {
		prev = nil
	}
	order := make([]int32, len(col))
	copy(order, prev)
	for r := len(prev); r < len(order); r++ {
		order[r] = int32(r)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		switch a, b := col[x], col[y]; {
		case a < b, IsMissing(b) && !IsMissing(a):
			return -1
		case a > b, IsMissing(a) && !IsMissing(b):
			return 1
		}
		return int(x - y)
	})
	return order
}

// build grows the subtree over the rows in segment [lo, lo+n).
func (b *treeBuilder) build(lo, n, depth int) *node {
	counts := make([]float64, b.numClasses)
	for _, r := range b.rows[lo : lo+n] {
		counts[b.class[r]] += b.weight[r]
		b.seen[b.class[r]] = true
	}
	b.present = b.present[:0]
	for c, ok := range b.seen {
		if ok {
			b.present = append(b.present, int32(c))
			b.seen[c] = false
		}
	}
	nd := &node{attr: -1, counts: counts, majority: majorityClass(counts)}
	if b.stops(counts, depth) {
		return nd
	}
	baseEntropy := b.entropy(counts)

	candidates := b.allAttrs
	if b.attrSampler != nil {
		candidates = b.attrSampler()
	}
	b.gains = b.gains[:0]
	for _, a := range candidates {
		var c splitCandidate
		if b.attrs[a].Kind == Nominal {
			c = b.evalNominal(a, lo, n, baseEntropy)
		} else {
			c = b.evalNumeric(a, lo, n, baseEntropy)
		}
		if c.valid {
			b.gains = append(b.gains, c)
		}
	}
	if len(b.gains) == 0 {
		return nd
	}
	// C4.5 heuristic: restrict to splits with at least average gain,
	// then pick the best gain ratio.
	var avg float64
	for _, g := range b.gains {
		avg += g.gain
	}
	avg /= float64(len(b.gains))
	var best splitCandidate
	bestRatio := -1.0
	for _, g := range b.gains {
		if g.gain >= avg-1e-12 && g.gainRatio > bestRatio {
			bestRatio = g.gainRatio
			best = g
		}
	}
	if !best.valid {
		return nd
	}

	nd.threshold = best.threshold
	numeric := b.attrs[best.attr].Kind == Numeric
	fanout := 2
	if !numeric {
		fanout = b.attrs[best.attr].NumValues()
	}
	frame := len(b.sizes)
	b.sizes = append(b.sizes, make([]int, fanout)...)
	sizes := b.sizes[frame:]
	col := b.vals[best.attr]
	for _, r := range b.rows[lo : lo+n] {
		v := col[r]
		c := int32(-1) // missing: dropped from children; this node's majority covers them
		switch {
		case IsMissing(v):
		case !numeric:
			c = int32(v)
		case v > best.threshold:
			c = 1
		default:
			c = 0
		}
		b.dest[r] = c
		if c >= 0 {
			sizes[c]++
		}
	}
	if numeric && (sizes[0] == 0 || sizes[1] == 0) {
		b.sizes = b.sizes[:frame]
		return nd
	}
	nd.attr = best.attr
	b.partition(b.rows[lo:lo+n], sizes)
	for _, idx := range b.sorted {
		if idx != nil {
			b.partition(idx[lo:lo+n], sizes)
		}
	}
	nd.children = make([]*node, fanout)
	at := lo
	for c := range nd.children {
		size := b.sizes[frame+c] // not sizes[c]: a deeper frame may have moved the stack
		if size > 0 {
			nd.children[c] = b.build(at, size, depth+1)
		}
		at += size
	}
	b.sizes = b.sizes[:frame]
	return nd
}

// partition stably regroups seg by b.dest: child 0's rows first, then
// child 1's, and so on, each group keeping seg's order. Dropped rows
// leave; what is left behind the last group is never read again.
func (b *treeBuilder) partition(seg []int32, sizes []int) {
	at := 0
	for c, size := range sizes {
		b.cursor[c] = at
		at += size
	}
	for _, r := range seg {
		if c := b.dest[r]; c >= 0 {
			b.tmp[b.cursor[c]] = r
			b.cursor[c]++
		}
	}
	copy(seg, b.tmp[:at])
}

// entropy is the Shannon entropy of a histogram over the current
// node's rows. Only the classes present in the node can be non-zero,
// so it visits those, ascending: the same terms in the same order as
// a scan of every class.
func (b *treeBuilder) entropy(counts []float64) float64 {
	var total float64
	for _, c := range b.present {
		total += counts[c]
	}
	if total == 0 {
		return 0
	}
	var e float64
	for _, c := range b.present {
		if x := counts[c]; x > 0 {
			p := x / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// evalNominal scores the multiway split on a nominal attribute, C4.5
// style: information gain ratio, missing values excluded.
func (b *treeBuilder) evalNominal(attr, lo, n int, baseEntropy float64) splitCandidate {
	cand := splitCandidate{attr: attr}
	nc, k := b.numClasses, b.attrs[attr].NumValues()
	counts := b.nomCounts[:k*nc]
	clear(counts)
	col := b.vals[attr]
	var total float64
	for _, r := range b.rows[lo : lo+n] {
		v := col[r]
		if IsMissing(v) {
			continue
		}
		counts[int(v)*nc+int(b.class[r])] += b.weight[r]
		total += b.weight[r]
	}
	if total == 0 {
		return cand
	}
	nonEmpty := 0
	var cond, splitInfo float64
	for v := 0; v < k; v++ {
		hist := counts[v*nc : (v+1)*nc]
		var w float64
		for _, c := range b.present {
			w += hist[c]
		}
		if w > 0 {
			nonEmpty++
			p := w / total
			cond += p * b.entropy(hist)
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

// evalNumeric scores the best binary threshold split on a numeric
// attribute: a scan of the node's rows in the attribute's order, with a
// candidate between every two distinct consecutive values.
func (b *treeBuilder) evalNumeric(attr, lo, n int, baseEntropy float64) splitCandidate {
	cand := splitCandidate{attr: attr}
	col := b.vals[attr]
	ord := b.sorted[attr][lo : lo+n]
	for len(ord) > 0 && IsMissing(col[ord[len(ord)-1]]) {
		ord = ord[:len(ord)-1]
	}
	if len(ord) < 2 {
		return cand
	}
	left, right := b.left, b.right
	clear(left)
	clear(right)
	var total float64
	for _, r := range ord {
		right[b.class[r]] += b.weight[r]
		total += b.weight[r]
	}
	var leftW float64
	bestGain, bestThr := -1.0, 0.0
	candidates := 0
	for i, r := range ord[:len(ord)-1] {
		w := b.weight[r]
		left[b.class[r]] += w
		right[b.class[r]] -= w
		leftW += w
		v, next := col[r], col[ord[i+1]]
		if v == next {
			continue
		}
		rightW := total - leftW
		if leftW < b.minLeaf || rightW < b.minLeaf {
			continue
		}
		candidates++
		cond := leftW/total*b.entropy(left) + rightW/total*b.entropy(right)
		gain := baseEntropy - cond
		if gain > bestGain {
			bestGain = gain
			bestThr = (v + next) / 2
		}
	}
	// C4.5's MDL correction for numeric attributes: charge the cost of
	// transmitting the chosen threshold against the gain.
	if candidates > 0 {
		bestGain -= math.Log2(float64(candidates)) / total
	}
	if bestGain <= 1e-10 {
		return cand
	}
	// Split info for the chosen threshold.
	var lw float64
	for _, r := range ord {
		if col[r] <= bestThr {
			lw += b.weight[r]
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
