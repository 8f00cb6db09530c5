package memctl

import (
	"sort"
	"time"

	"ofc/internal/sim"
)

// ThresholdEviction is the paper's §6.3 policy: an object is a victim
// when n_access < MinAccess or it has been idle longer than MaxIdle.
// Objects younger than the grace window (one eviction period) survive
// their first sweep; brownout removes the grace window and quarters
// the idle bound so only the hot set survives while memory is
// contended.
//
// The policy is stateless beyond its parameters: every criterion reads
// engine truth from the census, and victims come out in key order, so
// Victims is a function of the View's contents, not of the order the
// engine listed them in.
type ThresholdEviction struct {
	minAccess int64
	maxIdle   time.Duration
	ageFloor  time.Duration
}

// NewThresholdEviction builds the paper's policy from params.
func NewThresholdEviction(p Params) *ThresholdEviction {
	return &ThresholdEviction{minAccess: p.MinAccess, maxIdle: p.MaxIdle, ageFloor: p.AgeFloor}
}

// Name implements EvictionPolicy.
func (t *ThresholdEviction) Name() string { return "threshold" }

// Admit implements EvictionPolicy: the paper admits every predicted-
// cacheable object and lets the periodic sweep correct mistakes.
func (t *ThresholdEviction) Admit(string, int64, float64) bool { return true }

// Touch implements EvictionPolicy; the engine census already tracks
// n_access and recency, so there is nothing to record.
func (t *ThresholdEviction) Touch(string, sim.Time) {}

// Forget implements EvictionPolicy.
func (t *ThresholdEviction) Forget(string) {}

// Victims implements EvictionPolicy. For the discretionary sweep
// (Need == 0) it returns every object the §6.3 criteria condemn, in
// key order. With Need > 0 it takes them in the same order and stops
// once the need is covered.
func (t *ThresholdEviction) Victims(v View) []Object {
	ageFloor, maxIdle := t.ageFloor, t.maxIdle
	if v.Pressure == PressureBrownout {
		ageFloor, maxIdle = 0, t.maxIdle/4
	}
	var out []Object
	for _, o := range v.Objects {
		if v.pinned(o.Key) {
			continue
		}
		age := v.Now - o.Meta.Created
		if age < sim.Time(ageFloor) {
			continue
		}
		idle := v.Now - o.Meta.LastAccess
		if o.Meta.NAccess >= t.minAccess && idle <= sim.Time(maxIdle) {
			continue
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if v.Need > 0 {
		var freed int64
		for i, o := range out {
			if freed >= v.Need {
				return out[:i]
			}
			freed += o.Meta.Size
		}
	}
	return out
}
