package memctl

import (
	"cmp"
	"slices"
	"strings"

	"ofc/internal/kvstore"
)

// PlanReclaim is the paper's §6.4 migrate-first reclamation order over
// a node's census:
//
//  1. evict clean persisted final outputs (free to drop — the durable
//     copy already exists) in key order, stopping once the need is
//     covered;
//  2. if that falls short, queue asynchronous write-backs for every
//     dirty object, in key order, and order the inputs/intermediates
//     least-recently-accessed first (key order among equals), each to
//     be freed by migration-by-promotion with eviction as the fallback.
//
// The executor's stop-when-satisfied walk supplies the early exits.
// Every ordering is total, so the plan does not depend on the order of
// the census, which the engine hands out in id order.
//
// PlanReclaim writes the plan into p, reusing the room its slices have:
// an executor that keeps one Plan across reclaims allocates nothing
// once it has planned its largest census.
func PlanReclaim(p *Plan, census []Object) {
	p.First, p.WriteBacks, p.Second = p.First[:0], p.WriteBacks[:0], p.Second[:0]
	for _, o := range census {
		switch st := o.Meta.State; {
		case st.Dirty:
			p.WriteBacks = append(p.WriteBacks, o)
		case st.Kind == kvstore.KindFinal:
			p.First = append(p.First, o)
		case st.Kind == kvstore.KindInput || st.Kind == kvstore.KindIntermediate:
			p.Second = append(p.Second, o)
		case st.Kind == kvstore.KindChunk:
			// A stripe is freed only whole, with its object (store.Chunked).
		}
	}
	byKey := func(a, b Object) int { return strings.Compare(a.Key, b.Key) }
	slices.SortFunc(p.First, byKey)
	slices.SortFunc(p.WriteBacks, byKey)
	slices.SortFunc(p.Second, func(a, b Object) int {
		if c := cmp.Compare(a.Meta.LastAccess, b.Meta.LastAccess); c != 0 {
			return c
		}
		return byKey(a, b)
	})
}
