package memctl

import "sort"

// GDSFEviction is a Greedy-Dual-Size-Frequency policy (the family
// FaaSCache adapts for keep-alive) extended with the OFC predictor's
// caching-benefit score as the per-object cost term:
//
//	H(o) = clock + (0.5 + benefit(o)) · n_access(o) / size_MB(o)
//
// Small, frequently-hit objects the predictor believes in float to
// high priority; large one-shot objects sink. On every eviction the
// clock inflates to the victim's H, aging out objects that were hot
// long ago — the standard greedy-dual recency mechanism without
// timestamps.
//
// Per-key state is only the admission-time benefit score (and the
// clock); frequency and size come from the engine census. Victims
// never iterates the internal map — candidates come from the census
// slice and are ordered by (H, Key), so selection is deterministic.
type GDSFEviction struct {
	highWater float64
	clock     float64
	benefit   map[string]float64
}

// NewGDSFEviction builds the cost/size-aware policy from params.
func NewGDSFEviction(p Params) *GDSFEviction {
	hw := p.HighWater
	if hw <= 0 || hw > 1 {
		hw = DefaultParams().HighWater
	}
	return &GDSFEviction{highWater: hw, benefit: make(map[string]float64)}
}

// Admitted implements EvictionPolicy: the benefit score is recorded as
// the object's cost term so the predictor's confidence shapes eviction
// order.
func (g *GDSFEviction) Admitted(key string, benefit float64) {
	if benefit < 0 {
		benefit = 0
	}
	if benefit > 1 {
		benefit = 1
	}
	g.benefit[key] = benefit
}

// Forget implements EvictionPolicy.
func (g *GDSFEviction) Forget(key string) { delete(g.benefit, key) }

// priority computes H(o) against the current clock.
func (g *GDSFEviction) priority(o Object) float64 {
	freq := float64(o.Meta.NAccess)
	if freq < 1 {
		freq = 1
	}
	sizeMB := float64(o.Meta.Size) / (1 << 20)
	if sizeMB <= 0 {
		sizeMB = 1.0 / (1 << 20) // 1-byte floor
	}
	return g.clock + (0.5+g.benefit[o.Key])*freq/sizeMB
}

// Victims implements EvictionPolicy: lowest-H-first until occupancy is
// back at the high-water mark, like LRU, inflating the clock to each
// victim's priority.
func (g *GDSFEviction) Victims(v View) []Object {
	if v.Limit <= 0 {
		return nil
	}
	water := int64(g.highWater * float64(v.Limit))
	if v.Used <= water {
		return nil
	}
	need := v.Used - water
	type scored struct {
		obj Object
		h   float64
	}
	cand := make([]scored, 0, len(v.Objects))
	for _, o := range v.Objects {
		cand = append(cand, scored{obj: o, h: g.priority(o)})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].h != cand[j].h {
			return cand[i].h < cand[j].h
		}
		return cand[i].obj.Key < cand[j].obj.Key
	})
	var out []Object
	var freed int64
	for _, c := range cand {
		if freed >= need {
			break
		}
		out = append(out, c.obj)
		freed += c.obj.Meta.Size
		if c.h > g.clock {
			g.clock = c.h
		}
	}
	return out
}
