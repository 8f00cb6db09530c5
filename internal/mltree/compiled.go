package mltree

import "fmt"

// Trained trees: the flat serving form (DESIGN.md §15).
//
// J48 and RandomTree write their tree straight into contiguous
// array-backed node tables as they grow it: index-based children,
// packed split thresholds and per-node precomputed class
// distributions. OFC serves it on the invocation critical path (§5.1
// budgets ~1 ms for the prediction), so a Classify walk touches one
// node record per level and allocates nothing; cross-validation, the
// forest and the ModelTrainer's checks walk the same tables.
//
// A Tree is immutable and safe for concurrent use.

// cnode is one tree node, 32 bytes, packed so one walk step reads
// exactly one node record and the feature value:
//
//   - Attr: -1 marks a leaf; otherwise (attribute<<1)|1 for a numeric
//     split and attribute<<1 for a nominal one — the kind rides in the
//     low bit so the walk never touches a side table.
//   - numeric split: C0/C1 are the left/right node indices inline (no
//     child-table indirection on the common two-way path).
//   - nominal split: C0 is the offset into the shared children table,
//     C1 the branch count; -1 entries are absent branches (the walk
//     stops there: the training data never filled them).
//   - DistOff points at the node's precomputed class distribution.
//
// A child always comes after its parent: the tables are in DFS
// pre-order.
type cnode struct {
	Attr      int32   `json:"attr"`
	Majority  int32   `json:"maj"`
	C0        int32   `json:"c0"`
	C1        int32   `json:"c1"`
	DistOff   int32   `json:"dist"`
	Threshold float64 `json:"thr,omitempty"`
}

// Tree is a trained decision tree (J48 or RandomTree). It implements
// Classifier.
type Tree struct {
	attrs    []Attribute
	classes  int
	nodes    []cnode
	children []int32
	dist     []float64
}

// NumClasses returns the class count.
func (t *Tree) NumClasses() int { return t.classes }

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.nodes) }

// Depth returns the number of nodes on the longest root-to-leaf path.
// Children follow their parents, so one forward pass sees every
// parent's level before its children's.
func (t *Tree) Depth() int {
	level := make([]int, len(t.nodes))
	level[0] = 1
	deepest := 0
	for i, n := range t.nodes {
		deepest = max(deepest, level[i])
		switch {
		case n.Attr < 0:
		case n.Attr&1 != 0:
			level[n.C0], level[n.C1] = level[i]+1, level[i]+1
		default:
			for _, c := range t.children[n.C0 : n.C0+n.C1] {
				if c >= 0 {
					level[c] = level[i] + 1
				}
			}
		}
	}
	return deepest
}

// String renders a compact description.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree{nodes=%d depth=%d}", t.Size(), t.Depth())
}

// walk descends the tables and returns the index of the node the
// traversal stops at: a leaf, or an internal node when the split
// value is missing or names a nominal branch the training data never
// filled.
func (t *Tree) walk(vals []float64) int32 {
	nodes := t.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		a := n.Attr
		if a < 0 {
			return i
		}
		v := vals[a>>1]
		if IsMissing(v) {
			return i
		}
		if a&1 != 0 { // numeric split: inline children, branchless select
			c := n.C0
			if v > n.Threshold {
				c = n.C1
			}
			i = c
		} else { // nominal split: shared children table
			idx := int32(v)
			if uint32(idx) >= uint32(n.C1) {
				return i
			}
			c := t.children[n.C0+idx]
			if c < 0 {
				return i
			}
			i = c
		}
	}
}

// Classify implements Classifier with zero allocations: the majority
// class of the node the walk for vals stops at.
func (t *Tree) Classify(vals []float64) int {
	return int(t.nodes[t.walk(vals)].Majority)
}

// Distribution implements Classifier (allocates the returned slice;
// the critical path uses DistributionInto).
func (t *Tree) Distribution(vals []float64) []float64 {
	return t.DistributionInto(vals, make([]float64, t.classes))
}

// DistributionInto writes the class distribution into buf (which must
// hold NumClasses values) and returns it, allocating nothing.
func (t *Tree) DistributionInto(vals []float64, buf []float64) []float64 {
	buf = buf[:t.classes]
	off := t.nodes[t.walk(vals)].DistOff
	copy(buf, t.dist[off:off+int32(t.classes)])
	return buf
}
