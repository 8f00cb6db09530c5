package memctl

import "sort"

// MigrateFirstPlanner is the paper's §6.4 reclamation order:
//
//  1. evict clean persisted final outputs (free to drop — the durable
//     copy already exists) in key order, stopping once the need is
//     covered;
//  2. if that falls short, queue asynchronous write-backs for every
//     dirty object, in key order, and order the inputs/intermediates
//     least-recently-accessed first (key order among equals), each to
//     be freed by migration-by-promotion with eviction as the fallback.
//
// The plan's phase boundaries reproduce the pre-refactor freeBytes
// pass structure; the executor's stop-when-satisfied walk supplies the
// early exits. Every ordering is total, so the plan does not depend on
// the order of the census, which the engine hands out in map order.
type MigrateFirstPlanner struct{}

// NewMigrateFirstPlanner returns the paper's planner.
func NewMigrateFirstPlanner() *MigrateFirstPlanner { return &MigrateFirstPlanner{} }

// Name implements ReclaimPlanner.
func (m *MigrateFirstPlanner) Name() string { return "migratefirst" }

// Plan implements ReclaimPlanner.
func (m *MigrateFirstPlanner) Plan(v View) Plan {
	var p Plan
	for _, o := range v.Objects {
		if v.pinned(o.Key) {
			continue
		}
		if o.Meta.Tags["kind"] == "final" && o.Meta.Tags["dirty"] != "1" {
			p.First = append(p.First, Step{Key: o.Key, Size: o.Meta.Size})
		}
	}
	var inputs []Object
	for _, o := range v.Objects {
		switch {
		case o.Meta.Tags["dirty"] == "1":
			p.WriteBacks = append(p.WriteBacks, o.Key)
		case o.Meta.Tags["kind"] == "input" || o.Meta.Tags["kind"] == "intermediate":
			if !v.pinned(o.Key) {
				inputs = append(inputs, o)
			}
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
		p.Second = append(p.Second, Step{Key: o.Key, Size: o.Meta.Size, Migrate: true})
	}
	return p
}

// EvictOnlyPlanner is the ablation baseline without migration-by-
// promotion: same phase order and LRU input ordering, but every input
// is evicted outright. It isolates the contribution of promotion to
// reclaim latency and subsequent hit ratio.
type EvictOnlyPlanner struct{}

// NewEvictOnlyPlanner returns the no-migration planner.
func NewEvictOnlyPlanner() *EvictOnlyPlanner { return &EvictOnlyPlanner{} }

// Name implements ReclaimPlanner.
func (e *EvictOnlyPlanner) Name() string { return "evictonly" }

// Plan implements ReclaimPlanner.
func (e *EvictOnlyPlanner) Plan(v View) Plan {
	p := (&MigrateFirstPlanner{}).Plan(v)
	for i := range p.Second {
		p.Second[i].Migrate = false
	}
	return p
}
