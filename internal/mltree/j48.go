package mltree

import (
	"fmt"
	"math"
	"strings"
)

// node is a decision-tree node shared by J48 and RandomTree.
type node struct {
	// split
	attr      int     // attribute index, -1 for leaf
	threshold float64 // numeric split: <= threshold goes left
	children  []*node // numeric: [left,right]; nominal: one per category

	// leaf / fallback data
	counts   []float64 // weighted class histogram at this node
	majority int       // majority class (used for leaves and missing values)
}

func (n *node) isLeaf() bool { return n.attr < 0 }

// leafFor walks the tree for vals and returns the node the walk stops
// at: a leaf, or an internal node when its split value is missing or
// names a nominal branch the training data never filled.
func (n *node) leafFor(vals []float64, attrs []Attribute) *node {
	cur := n
	for !cur.isLeaf() {
		v := vals[cur.attr]
		if IsMissing(v) {
			break
		}
		if attrs[cur.attr].Kind == Numeric {
			if v <= cur.threshold {
				cur = cur.children[0]
			} else {
				cur = cur.children[1]
			}
		} else {
			idx := int(v)
			if idx < 0 || idx >= len(cur.children) || cur.children[idx] == nil {
				break
			}
			cur = cur.children[idx]
		}
	}
	return cur
}

// distribution returns the normalized class histogram of the node the
// walk for vals stops at (one-hot majority when it carries no weight).
func (n *node) distribution(vals []float64, attrs []Attribute) []float64 {
	cur := n.leafFor(vals, attrs)
	total := 0.0
	for _, c := range cur.counts {
		total += c
	}
	dist := make([]float64, len(cur.counts))
	if total > 0 {
		for i, c := range cur.counts {
			dist[i] = c / total
		}
	} else {
		dist[cur.majority] = 1
	}
	return dist
}

// classify returns the majority class of the node the walk for vals
// stops at.
func (n *node) classify(vals []float64, attrs []Attribute) int {
	return n.leafFor(vals, attrs).majority
}

func (n *node) size() int {
	if n.isLeaf() {
		return 1
	}
	s := 1
	for _, c := range n.children {
		if c != nil {
			s += c.size()
		}
	}
	return s
}

func (n *node) depth() int {
	if n.isLeaf() {
		return 1
	}
	d := 0
	for _, c := range n.children {
		if c != nil && c.depth() > d {
			d = c.depth()
		}
	}
	return d + 1
}

// J48 is a C4.5-style decision-tree learner: gain-ratio splits, a
// minimum leaf weight, and optional pessimistic error pruning with the
// standard confidence factor.
type J48 struct {
	// MinLeaf is the minimum total weight per leaf (C4.5 default 2).
	MinLeaf float64
	// Confidence is the pruning confidence factor (C4.5 default 0.25).
	// Zero disables pruning.
	Confidence float64
	// MaxDepth caps tree depth; zero means unlimited.
	MaxDepth int

	// b is the builder every Fit grows its tree with. It keeps its
	// scratch and the column orders of the last fit, where the next one
	// starts its sorts: a learner kept across refits of a dataset that
	// only grows (the ModelTrainer's) allocates only the tree's nodes
	// and sorts nearly sorted input. It affects cost alone, never the
	// tree. Because Fit writes it, a J48 must not run two Fits at once.
	b treeBuilder
}

// NewJ48 returns a learner with the C4.5 defaults.
func NewJ48() *J48 { return &J48{MinLeaf: 2, Confidence: 0.25} }

// Name implements Learner.
func (j *J48) Name() string { return "J48" }

// Tree is a trained decision tree.
type Tree struct {
	root  *node
	attrs []Attribute
	n     int // training instances
}

// Fit implements Learner.
func (j *J48) Fit(d *Dataset) Classifier {
	minLeaf := j.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	j.b.minLeaf, j.b.maxDepth = minLeaf, j.MaxDepth
	root := j.b.fit(d)
	if j.Confidence > 0 {
		prune(root, j.Confidence, d.Attrs)
	}
	return &Tree{root: root, attrs: d.Attrs, n: d.Len()}
}

// errorEstimate is the C4.5 pessimistic upper bound on the error rate
// of a leaf covering n instances with e errors, at confidence cf,
// using the normal approximation to the binomial.
func errorEstimate(n, e, cf float64) float64 {
	if n == 0 {
		return 0
	}
	z := zValue(cf)
	f := e / n
	num := f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))
	den := 1 + z*z/n
	return num / den * n
}

// zValue approximates the standard normal quantile for the upper tail
// probability cf (C4.5 uses cf=0.25 → z≈0.6745).
func zValue(cf float64) float64 {
	// Beasley-Springer-Moro style rational approximation of the
	// inverse normal CDF at 1-cf.
	p := 1 - cf
	if p <= 0 || p >= 1 {
		return 0
	}
	// Peter Acklam's approximation.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	plow, phigh := 0.02425, 1-0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}

// prune applies subtree replacement: if the pessimistic error of a node
// as a leaf does not exceed the summed pessimistic error of its
// children, collapse it.
func prune(n *node, cf float64, attrs []Attribute) float64 {
	var total, errs float64
	for c, w := range n.counts {
		total += w
		if c != n.majority {
			errs += w
		}
	}
	leafErr := errorEstimate(total, errs, cf)
	if n.isLeaf() {
		return leafErr
	}
	var subtreeErr float64
	for _, c := range n.children {
		if c != nil {
			subtreeErr += prune(c, cf, attrs)
		}
	}
	if leafErr <= subtreeErr+1e-9 {
		n.attr = -1
		n.children = nil
		return leafErr
	}
	return subtreeErr
}

// Classify implements Classifier.
func (t *Tree) Classify(vals []float64) int { return t.root.classify(vals, t.attrs) }

// Distribution implements Classifier.
func (t *Tree) Distribution(vals []float64) []float64 { return t.root.distribution(vals, t.attrs) }

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.root.size() }

// Depth returns the tree depth.
func (t *Tree) Depth() int { return t.root.depth() }

// String renders a compact description.
func (t *Tree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tree{nodes=%d depth=%d}", t.Size(), t.Depth())
	return sb.String()
}
