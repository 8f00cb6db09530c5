package mltree

// Compiled inference (critical-path serving form).
//
// The training representation — *Tree's pointer-linked nodes — is
// convenient to grow but hostile to serve from: every step of a
// Classify walk chases a heap pointer, touches the shared attrs slice
// for the attribute kind, and Distribution allocates a fresh slice per
// call. On OFC's invocation critical path (§5.1 budgets ~1 ms for the
// prediction) that fixed cost is paid on every single request.
//
// Compile() flattens a trained tree into contiguous array-backed node
// tables: index-based children, packed split thresholds and per-node
// precomputed class distributions. The compiled walk touches one
// cache-friendly node record per level and allocates nothing. Results
// are bit-identical to the pointer walk: the same traversal rules, the
// same float operations in the same order.
//
// A CompiledTree is immutable and safe for concurrent use.

// cnode is one flattened tree node, 32 bytes, packed so one walk step
// reads exactly one node record and the feature value:
//
//   - attr: -1 marks a leaf; otherwise (attribute<<1)|1 for a numeric
//     split and attribute<<1 for a nominal one — the kind rides in the
//     low bit so the walk never touches a side table.
//   - numeric split: c0/c1 are the left/right node indices inline (no
//     child-table indirection on the common two-way path).
//   - nominal split: c0 is the offset into the shared children table,
//     c1 the branch count; -1 entries are absent branches (the walk
//     stops there, like the pointer walk stops on a nil child).
//   - distOff points at the node's precomputed class distribution.
type cnode struct {
	attr      int32
	majority  int32
	c0, c1    int32
	distOff   int32
	threshold float64
}

// CompiledTree is the flat serving form of a trained tree (J48 or
// RandomTree). It implements Classifier.
type CompiledTree struct {
	classes  int
	numeric  []bool // per-attribute kind, indexed like the walk
	nodes    []cnode
	children []int32
	dist     []float64
}

// NumClasses returns the class count.
func (t *CompiledTree) NumClasses() int { return t.classes }

// Nodes returns the flattened node count.
func (t *CompiledTree) Nodes() int { return len(t.nodes) }

// walk descends the flat tables and returns the index of the node the
// traversal stops at — a leaf, or an internal node when the value is
// missing or the nominal branch is absent (same rules as the pointer
// walk).
func (t *CompiledTree) walk(vals []float64) int32 {
	nodes := t.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		a := n.attr
		if a < 0 {
			return i
		}
		v := vals[a>>1]
		if IsMissing(v) {
			return i
		}
		if a&1 != 0 { // numeric split: inline children, branchless select
			c := n.c0
			if v > n.threshold {
				c = n.c1
			}
			i = c
		} else { // nominal split: shared children table
			idx := int32(v)
			if uint32(idx) >= uint32(n.c1) {
				return i
			}
			c := t.children[n.c0+idx]
			if c < 0 {
				return i
			}
			i = c
		}
	}
}

// Classify implements Classifier with zero allocations.
func (t *CompiledTree) Classify(vals []float64) int {
	return int(t.nodes[t.walk(vals)].majority)
}

// Distribution implements Classifier (allocates the returned slice;
// the critical path uses DistributionInto).
func (t *CompiledTree) Distribution(vals []float64) []float64 {
	return t.DistributionInto(vals, make([]float64, t.classes))
}

// DistributionInto writes the class distribution into buf (which must
// hold NumClasses values) and returns it, allocating nothing.
func (t *CompiledTree) DistributionInto(vals []float64, buf []float64) []float64 {
	buf = buf[:t.classes]
	off := t.nodes[t.walk(vals)].distOff
	copy(buf, t.dist[off:off+int32(t.classes)])
	return buf
}

// ctBuilder accumulates the flat tables during compilation.
type ctBuilder struct {
	t *CompiledTree
}

func newCTBuilder(attrs []Attribute, classes int) *ctBuilder {
	numeric := make([]bool, len(attrs))
	for i := range attrs {
		numeric[i] = attrs[i].Kind == Numeric
	}
	return &ctBuilder{t: &CompiledTree{classes: classes, numeric: numeric}}
}

// addNode appends a node shell plus its normalized distribution
// (counts/total, or one-hot majority when total is zero — the same
// arithmetic the pointer walk performs per call) and returns its index.
func (b *ctBuilder) addNode(attr int, threshold float64, counts []float64, majority int) int32 {
	t := b.t
	idx := int32(len(t.nodes))
	distOff := int32(len(t.dist))
	var total float64
	for _, c := range counts {
		total += c
	}
	dist := make([]float64, t.classes)
	if total > 0 {
		for i, c := range counts {
			dist[i] = c / total
		}
	} else {
		dist[majority] = 1
	}
	enc := int32(-1)
	if attr >= 0 {
		enc = int32(attr) << 1
		if t.numeric[attr] {
			enc |= 1
		}
	}
	t.dist = append(t.dist, dist...)
	t.nodes = append(t.nodes, cnode{
		attr: enc, majority: int32(majority),
		c0: -1, distOff: distOff, threshold: threshold,
	})
	return idx
}

// setNumericChildren stores the left/right subtree indices inline in a
// numeric split node.
func (b *ctBuilder) setNumericChildren(idx, left, right int32) {
	b.t.nodes[idx].c0, b.t.nodes[idx].c1 = left, right
}

// reserveChildren allocates n nominal child slots for node idx (filled
// by the caller as subtrees flatten; unfilled slots stay -1).
func (b *ctBuilder) reserveChildren(idx int32, n int) int32 {
	off := int32(len(b.t.children))
	for i := 0; i < n; i++ {
		b.t.children = append(b.t.children, -1)
	}
	b.t.nodes[idx].c0 = off
	b.t.nodes[idx].c1 = int32(n)
	return off
}

// Compile flattens a trained tree into its contiguous serving form.
func (t *Tree) Compile() *CompiledTree {
	b := newCTBuilder(t.attrs, len(t.root.counts))
	var flatten func(n *node) int32
	flatten = func(n *node) int32 {
		attr := n.attr
		if n.isLeaf() {
			attr = -1
		}
		idx := b.addNode(attr, n.threshold, n.counts, n.majority)
		if !n.isLeaf() {
			if b.t.numeric[n.attr] {
				l := flatten(n.children[0])
				r := flatten(n.children[1])
				b.setNumericChildren(idx, l, r)
			} else {
				off := b.reserveChildren(idx, len(n.children))
				for i, c := range n.children {
					if c != nil {
						b.t.children[off+int32(i)] = flatten(c)
					}
				}
			}
		}
		return idx
	}
	flatten(t.root)
	return b.t
}
