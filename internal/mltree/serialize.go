package mltree

import (
	"encoding/json"
	"fmt"
)

// The paper keeps each function's trained model in OWK's CouchDB so the
// Predictor fetches it together with the function metadata (§5.1).
// This file provides the JSON wire form for trained trees and forests.

// nodeJSON is the serialized form of a tree node.
type nodeJSON struct {
	Attr      int         `json:"attr"`
	Threshold float64     `json:"thr,omitempty"`
	Children  []*nodeJSON `json:"ch,omitempty"`
	Counts    []float64   `json:"counts"`
	Majority  int         `json:"maj"`
}

// treeJSON is the serialized form of a Tree.
type treeJSON struct {
	Root  *nodeJSON   `json:"root"`
	Attrs []Attribute `json:"attrs"`
	N     int         `json:"n"`
}

func toNodeJSON(n *node) *nodeJSON {
	if n == nil {
		return nil
	}
	out := &nodeJSON{Attr: n.attr, Threshold: n.threshold, Counts: n.counts, Majority: n.majority}
	for _, c := range n.children {
		out.Children = append(out.Children, toNodeJSON(c))
	}
	return out
}

func fromNodeJSON(j *nodeJSON) *node {
	if j == nil {
		return nil
	}
	n := &node{attr: j.Attr, threshold: j.Threshold, counts: j.Counts, majority: j.Majority}
	for _, c := range j.Children {
		n.children = append(n.children, fromNodeJSON(c))
	}
	return n
}

// MarshalTree serializes a trained Tree to JSON.
func MarshalTree(t *Tree) ([]byte, error) {
	return json.Marshal(treeJSON{Root: toNodeJSON(t.root), Attrs: t.attrs, N: t.n})
}

// UnmarshalTree reconstructs a Tree from MarshalTree output.
func UnmarshalTree(data []byte) (*Tree, error) {
	var j treeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("mltree: bad tree encoding: %w", err)
	}
	if j.Root == nil {
		return nil, fmt.Errorf("mltree: tree encoding has no root")
	}
	return &Tree{root: fromNodeJSON(j.Root), attrs: j.Attrs, n: j.N}, nil
}
