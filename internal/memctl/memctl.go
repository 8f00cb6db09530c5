// Package memctl is OFC's memory control plane as a pluggable policy
// subsystem. The paper's headline contribution is not the cache itself
// but the decision layer that opportunistically sizes it: sliding-
// window slack estimation (§6.4), threshold eviction (§6.3: n_access
// < 5 or idle > 30 min) and ordered reclamation under sandbox pressure
// (§6.4: persisted outputs first, then LRU inputs by migration-by-
// promotion, eviction last). This package carves that layer out of the
// per-node cache agent into three small interfaces so the paper's
// fixed policy becomes one point in a searchable design space — the
// same ablation seam FaaSCache (greedy-dual keep-alive) and Faa$T
// (per-application caching) use to compare keep-alive/eviction
// disciplines.
//
// The division of labor: policies decide WHO (which objects are
// victims, how much slack to hold, in what order to free), the cache
// agent in core remains the actuator deciding HOW (write-backs for
// dirty victims, grant arithmetic, charging the Figure-8 scaling
// costs). Policies are pure bookkeeping — they never touch the
// simulation clock or the network, so swapping them cannot perturb
// virtual time except through the decisions themselves.
package memctl

import (
	"fmt"
	"time"

	"ofc/internal/sim"
	"ofc/internal/store"
)

// Object is one cached object's census entry (key + engine metadata:
// size, creation/access times, access count, tags).
type Object = store.ObjectInfo

// Pressure is the control plane's urgency level, fed by the overload
// degradation controller. Policies tighten their criteria under
// brownout instead of the agent special-casing it.
type Pressure int

const (
	// PressureNormal is ordinary background operation.
	PressureNormal Pressure = iota
	// PressureBrownout means the node is memory-contended: the
	// overload controller wants cache memory flowing back to
	// sandboxes, so sweeps lose their grace windows and idle bounds
	// shrink.
	PressureBrownout
)

// String names the level.
func (p Pressure) String() string {
	if p == PressureBrownout {
		return "brownout"
	}
	return "normal"
}

// View is the immutable situation a policy decides over: the node's
// object census (in no particular order — the engine lists it in map
// order, so a policy imposes whatever order its answer needs), usage
// against the current grant, how many bytes must be freed (0 for a
// discretionary periodic sweep), the pressure level and an optional
// pin predicate for objects that must never be victims (in-flight
// reads holding a reference).
type View struct {
	Now     sim.Time
	Objects []Object
	// Used and Limit are the node's cache occupancy and grant.
	Used, Limit int64
	// Need is the number of bytes that must be freed; 0 means the
	// policy sweeps at its own discretion.
	Need     int64
	Pressure Pressure
	// Pinned reports objects that must not be selected as victims.
	// May be nil (nothing pinned).
	Pinned func(key string) bool
}

// pinned is the nil-safe pin check.
func (v *View) pinned(key string) bool {
	return v.Pinned != nil && v.Pinned(key)
}

// EvictionPolicy decides which cached objects stay. Implementations
// keep only per-key bookkeeping; all engine truth (sizes, access
// counts, recency) arrives through the View census.
//
// Contract (enforced by the conformance suite):
//   - Victims is deterministic: the same View yields the same victim
//     list, in the same order, however View.Objects is ordered.
//   - Victims never contains a pinned object.
//   - With Need > 0, the cumulative size of the victims exceeds Need
//     by at most one object (selection stops at the first object that
//     satisfies the need).
type EvictionPolicy interface {
	Name() string
	// Admit decides whether an object is worth caching at all — the
	// write-admission gate the proxy consults before admitting a
	// missed input. benefit is the predictor's caching-benefit score
	// in [0,1] (0 when unknown).
	Admit(key string, size int64, benefit float64) bool
	// Touch observes a cache hit on key (policy-internal frequency /
	// recency bookkeeping beyond what the engine census carries).
	Touch(key string, now sim.Time)
	// Forget drops any per-key state after an eviction or delete.
	Forget(key string)
	// Victims selects objects to evict, in eviction order.
	Victims(v View) []Object
}

// SlackEstimator turns the sandbox-churn signal into a slack-pool
// target: the memory the agent keeps free so sandbox placement never
// waits on a cache shrink (§6.4).
type SlackEstimator interface {
	Name() string
	// Observe records one churn sample: the absolute change of
	// reserved sandbox memory over the sampling period.
	Observe(delta int64)
	// Target returns the desired slack-pool size. ok is false when
	// the estimator has no opinion yet (keep the current slack).
	Target() (target int64, ok bool)
}

// Step is one reclamation action over a single object.
type Step struct {
	Key  string
	Size int64
	// Migrate requests migration-by-promotion (the backup copy is
	// promoted to master on another node, no payload transfer); the
	// executor falls back to eviction when migration fails. False
	// means plain eviction.
	Migrate bool
}

// Plan is an ordered reclamation recipe for freeing Need bytes. The
// executor walks First until the need is met; if First falls short it
// triggers the asynchronous write-backs and then walks Second, again
// stopping as soon as the need is met. The two-phase shape preserves
// the paper's order — clean persisted outputs first (free to drop),
// dirty outputs queued for write-back, then LRU inputs by
// migration-by-promotion with eviction as last resort.
type Plan struct {
	First []Step
	// WriteBacks lists dirty objects whose write-back the executor
	// triggers asynchronously (they are freed later, off the critical
	// path, and never count toward the synchronous need).
	WriteBacks []string
	Second     []Step
}

// ReclaimPlanner orders the migrate-vs-evict decisions for the §6.4
// fast-reclamation path (Reclaim(need)) and for grant shrinks.
type ReclaimPlanner interface {
	Name() string
	// Plan builds the recipe for freeing v.Need bytes.
	Plan(v View) Plan
}

// Params carries the shared numeric knobs the built-in policies draw
// from; the zero value is completed by Defaults.
type Params struct {
	// MinAccess and MaxIdle are the §6.3 threshold-eviction criteria
	// (n_access < 5 or idle > 30 min).
	MinAccess int64
	MaxIdle   time.Duration
	// AgeFloor is the grace window: objects younger than one eviction
	// period survive their first sweep.
	AgeFloor time.Duration
	// MinSlack and MaxSlack clamp the slack estimators.
	MinSlack, MaxSlack int64
	// ChurnWindow is the sliding-window length of WindowSlack.
	ChurnWindow int
	// StaticSlack is the fixed target of the static estimator (the
	// ablation baseline); 0 falls back to MinSlack.
	StaticSlack int64
	// HighWater is the occupancy fraction above which the demand-
	// driven policies (LRU, GDSF) start their discretionary sweeps.
	HighWater float64
}

// DefaultParams returns the paper's constants.
func DefaultParams() Params {
	return Params{
		MinAccess:   5,
		MaxIdle:     30 * time.Minute,
		AgeFloor:    300 * time.Second,
		MinSlack:    64 << 20,
		MaxSlack:    1 << 30,
		ChurnWindow: 5,
		StaticSlack: 100 << 20,
		HighWater:   0.9,
	}
}

// Spec names one point in the policy design space.
type Spec struct {
	Eviction string
	Slack    string
	Planner  string
}

// DefaultSpec is the paper's configuration.
func DefaultSpec() Spec {
	return Spec{Eviction: "threshold", Slack: "window", Planner: "migratefirst"}
}

// String renders the spec as "eviction/slack/planner".
func (s Spec) String() string {
	return s.Eviction + "/" + s.Slack + "/" + s.Planner
}

// Policies is one node's instantiated policy set. Each agent owns its
// own instances — eviction state (GDSF priorities, LRU bookkeeping) is
// per node.
type Policies struct {
	Eviction EvictionPolicy
	Slack    SlackEstimator
	Planner  ReclaimPlanner
}

// EvictionPolicies lists the registered eviction-policy names, in
// registry order.
func EvictionPolicies() []string { return []string{"threshold", "lru", "gdsf"} }

// SlackEstimators lists the registered estimator names.
func SlackEstimators() []string { return []string{"window", "static"} }

// Planners lists the registered reclaim planners.
func Planners() []string { return []string{"migratefirst", "evictonly"} }

// NewEviction builds one eviction policy by name.
func NewEviction(name string, p Params) (EvictionPolicy, error) {
	switch name {
	case "", "threshold":
		return NewThresholdEviction(p), nil
	case "lru":
		return NewLRUEviction(p), nil
	case "gdsf":
		return NewGDSFEviction(p), nil
	}
	return nil, fmt.Errorf("memctl: unknown eviction policy %q", name)
}

// NewSlack builds one slack estimator by name.
func NewSlack(name string, p Params) (SlackEstimator, error) {
	switch name {
	case "", "window":
		return NewWindowSlack(p), nil
	case "static":
		return NewStaticSlack(p), nil
	}
	return nil, fmt.Errorf("memctl: unknown slack estimator %q", name)
}

// NewPlanner builds one reclaim planner by name.
func NewPlanner(name string, p Params) (ReclaimPlanner, error) {
	switch name {
	case "", "migratefirst":
		return NewMigrateFirstPlanner(), nil
	case "evictonly":
		return NewEvictOnlyPlanner(), nil
	}
	return nil, fmt.Errorf("memctl: unknown reclaim planner %q", name)
}

// Build instantiates a full policy set from a spec. Empty spec fields
// fall back to the paper's defaults.
func Build(s Spec, p Params) (Policies, error) {
	var out Policies
	var err error
	if out.Eviction, err = NewEviction(s.Eviction, p); err != nil {
		return Policies{}, err
	}
	if out.Slack, err = NewSlack(s.Slack, p); err != nil {
		return Policies{}, err
	}
	if out.Planner, err = NewPlanner(s.Planner, p); err != nil {
		return Policies{}, err
	}
	return out, nil
}

// MustBuild is Build panicking on unknown names (for defaults wired in
// code, where a typo is a programming error).
func MustBuild(s Spec, p Params) Policies {
	out, err := Build(s, p)
	if err != nil {
		panic(err)
	}
	return out
}
