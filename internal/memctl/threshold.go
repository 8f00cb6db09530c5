package memctl

import (
	"sort"
	"time"

	"ofc/internal/sim"
)

// ThresholdEviction is the paper's §6.3 policy: an object is a victim
// when n_access < 5 or it has been idle longer than MaxIdle.
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
	maxIdle  time.Duration
	ageFloor time.Duration
}

// NewThresholdEviction builds the paper's policy from params.
func NewThresholdEviction(p Params) *ThresholdEviction {
	return &ThresholdEviction{maxIdle: p.MaxIdle, ageFloor: p.AgeFloor}
}

// Admitted implements EvictionPolicy: the paper admits every
// predicted-cacheable object and lets the periodic sweep correct
// mistakes, so there is nothing to record.
func (t *ThresholdEviction) Admitted(string, float64) {}

// Forget implements EvictionPolicy.
func (t *ThresholdEviction) Forget(string) {}

// Victims implements EvictionPolicy: every object the §6.3 criteria
// condemn, in key order.
func (t *ThresholdEviction) Victims(v View) []Object {
	ageFloor, maxIdle := t.ageFloor, t.maxIdle
	if v.Pressure == PressureBrownout {
		ageFloor, maxIdle = 0, t.maxIdle/4
	}
	var out []Object
	for _, o := range v.Objects {
		age := v.Now - o.Meta.Created
		if age < sim.Time(ageFloor) {
			continue
		}
		idle := v.Now - o.Meta.LastAccess
		if o.Meta.NAccess >= minAccess && idle <= sim.Time(maxIdle) {
			continue
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
