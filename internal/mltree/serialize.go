package mltree

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The paper keeps each function's trained model in OWK's CouchDB so the
// Predictor fetches it together with the function metadata (§5.1).
// This file provides the JSON wire form for trained trees: the Tree's
// tables as they are, with the attributes they split on.

// treeJSON is the serialized form of a Tree.
type treeJSON struct {
	Attrs    []Attribute `json:"attrs"`
	Classes  int         `json:"classes"`
	Nodes    []cnode     `json:"nodes"`
	Children []int32     `json:"children,omitempty"`
	Dist     []float64   `json:"dist"`
}

// MarshalTree serializes a trained Tree to JSON.
func MarshalTree(t *Tree) ([]byte, error) {
	return json.Marshal(treeJSON{Attrs: t.attrs, Classes: t.classes, Nodes: t.nodes, Children: t.children, Dist: t.dist})
}

// UnmarshalTree reconstructs a Tree from MarshalTree output. The data
// comes from outside, so every index a walk would follow is checked.
func UnmarshalTree(data []byte) (*Tree, error) {
	var j treeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("mltree: bad tree encoding: %w", err)
	}
	t := &Tree{attrs: j.Attrs, classes: j.Classes, nodes: j.Nodes, children: j.Children, dist: j.Dist}
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("mltree: bad tree encoding: %w", err)
	}
	return t, nil
}

// check reports the first table entry that a walk, Distribution or
// Depth could not follow: an attribute the tree does not have or of
// the other kind, a child that does not come after its parent or lies
// past the last node, child slots or a distribution past the end of
// their table, a majority class out of range.
func (t *Tree) check() error {
	if len(t.nodes) == 0 {
		return errors.New("no nodes")
	}
	if t.classes < 1 || t.classes > len(t.dist) {
		return fmt.Errorf("%d classes with %d distribution values", t.classes, len(t.dist))
	}
	for i, n := range t.nodes {
		if n.Majority < 0 || int(n.Majority) >= t.classes {
			return fmt.Errorf("node %d: majority class %d out of range", i, n.Majority)
		}
		if n.DistOff < 0 || int(n.DistOff) > len(t.dist)-t.classes {
			return fmt.Errorf("node %d: distribution offset %d out of range", i, n.DistOff)
		}
		if n.Attr < 0 {
			continue
		}
		a, numeric := int(n.Attr>>1), n.Attr&1 != 0
		if a >= len(t.attrs) || (t.attrs[a].Kind == Numeric) != numeric {
			return fmt.Errorf("node %d: attribute %d out of range", i, a)
		}
		kids := []int32{n.C0, n.C1}
		if !numeric {
			if n.C0 < 0 || n.C1 < 0 || int(n.C0)+int(n.C1) > len(t.children) {
				return fmt.Errorf("node %d: child slots [%d, +%d) out of range", i, n.C0, n.C1)
			}
			kids = t.children[n.C0 : n.C0+n.C1]
		}
		for _, c := range kids {
			if c == -1 && !numeric {
				continue // an absent branch
			}
			if c <= int32(i) || int(c) >= len(t.nodes) {
				return fmt.Errorf("node %d: child index %d out of range", i, c)
			}
		}
	}
	return nil
}
