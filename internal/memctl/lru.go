package memctl

import (
	"slices"
	"sort"
)

// LRUEviction is the classic recency-only baseline: victims are the
// least-recently-accessed objects, regardless of access count, kind or
// predicted benefit. For the discretionary sweep it behaves like a
// watermark cache — it only evicts once occupancy crosses HighWater
// of the grant, then trims back down to the watermark — so a
// lightly-loaded cache is never touched (unlike the threshold policy,
// which evicts cold objects even with memory to spare).
//
// Recency comes from the engine census (Meta.LastAccess), so the
// policy carries no per-key state and is deterministic by
// construction: ordering is (LastAccess, Key) ascending.
type LRUEviction struct {
	highWater float64
}

// NewLRUEviction builds the recency baseline from params.
func NewLRUEviction(p Params) *LRUEviction {
	hw := p.HighWater
	if hw <= 0 || hw > 1 {
		hw = DefaultParams().HighWater
	}
	return &LRUEviction{highWater: hw}
}

// Admitted implements EvictionPolicy: LRU admits everything and lets
// recency sort it out.
func (l *LRUEviction) Admitted(string, float64) {}

// Forget implements EvictionPolicy.
func (l *LRUEviction) Forget(string) {}

// Victims implements EvictionPolicy: oldest-first until occupancy is
// back at the high-water mark (nothing below it), overshooting by at
// most the last victim.
func (l *LRUEviction) Victims(v View) []Object {
	if v.Limit <= 0 {
		return nil
	}
	water := int64(l.highWater * float64(v.Limit))
	if v.Used <= water {
		return nil
	}
	need := v.Used - water
	cand := slices.Clone(v.Objects)
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Meta.LastAccess != cand[j].Meta.LastAccess {
			return cand[i].Meta.LastAccess < cand[j].Meta.LastAccess
		}
		return cand[i].Key < cand[j].Key
	})
	var out []Object
	var freed int64
	for _, o := range cand {
		if freed >= need {
			break
		}
		out = append(out, o)
		freed += o.Meta.Size
	}
	return out
}
