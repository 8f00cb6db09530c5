package memctl

import "sort"

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
// the census, which the engine hands out in map order.
func PlanReclaim(census []Object) Plan {
	var p Plan
	var inputs []Object
	for _, o := range census {
		switch {
		case o.Meta.Tags["dirty"] == "1":
			p.WriteBacks = append(p.WriteBacks, o.Key)
		case o.Meta.Tags["kind"] == "final":
			p.First = append(p.First, Step{Key: o.Key, Size: o.Meta.Size})
		case o.Meta.Tags["kind"] == "input" || o.Meta.Tags["kind"] == "intermediate":
			inputs = append(inputs, o)
		}
	}
	sort.Slice(p.First, func(i, j int) bool { return p.First[i].Key < p.First[j].Key })
	sort.Strings(p.WriteBacks)
	sort.Slice(inputs, func(i, j int) bool {
		if inputs[i].Meta.LastAccess != inputs[j].Meta.LastAccess {
			return inputs[i].Meta.LastAccess < inputs[j].Meta.LastAccess
		}
		return inputs[i].Key < inputs[j].Key
	})
	for _, o := range inputs {
		p.Second = append(p.Second, Step{Key: o.Key, Size: o.Meta.Size})
	}
	return p
}
