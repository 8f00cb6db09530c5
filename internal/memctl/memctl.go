// Package memctl is OFC's memory control plane as a pluggable policy
// subsystem. The paper's headline contribution is not the cache itself
// but the decision layer that opportunistically sizes it: sliding-
// window slack estimation (§6.4), threshold eviction (§6.3: n_access
// < 5 or idle > 30 min) and ordered reclamation under sandbox pressure
// (§6.4: persisted outputs first, then LRU inputs by migration-by-
// promotion, eviction last). This package carves that layer out of the
// per-node cache agent: two small interfaces, eviction and slack, make
// the paper's fixed policy one point in an eviction × slack grid — the
// same ablation seam FaaSCache (greedy-dual keep-alive) and Faa$T
// (per-application caching) use to compare keep-alive/eviction
// disciplines — and one function, PlanReclaim, orders reclamation.
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

// View is the immutable situation an eviction policy decides over:
// the node's object census (in no particular order — the engine lists
// it in map order, so a policy imposes whatever order its answer
// needs), usage against the current grant and the pressure level.
type View struct {
	Now     sim.Time
	Objects []Object
	// Used and Limit are the node's cache occupancy and grant.
	Used, Limit int64
	Pressure    Pressure
}

// EvictionPolicy decides which cached objects stay. Implementations
// keep only per-key bookkeeping; all engine truth (sizes, access
// counts, recency) arrives through the View census.
//
// Contract (enforced by the conformance suite): Victims is
// deterministic — the same View yields the same victim list, in the
// same order, however View.Objects is ordered.
type EvictionPolicy interface {
	// Admitted notes that the proxy is admitting a missed input into
	// the cache. benefit is the predictor's caching-benefit score in
	// [0,1] (0 when unknown).
	Admitted(key string, benefit float64)
	// Forget drops any per-key state after an eviction or delete.
	Forget(key string)
	// Victims selects the discretionary sweep's objects to evict, in
	// eviction order.
	Victims(v View) []Object
}

// SlackEstimator turns the sandbox-churn signal into a slack-pool
// target: the memory the agent keeps free so sandbox placement never
// waits on a cache shrink (§6.4).
type SlackEstimator interface {
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
}

// Plan is an ordered reclamation recipe. The executor walks First,
// evicting, until its need is met; if First falls short it triggers
// the asynchronous write-backs and then walks Second, again stopping
// as soon as the need is met. Each Second step is a
// migration-by-promotion (the backup copy is promoted to master on
// another node, no payload transfer), with eviction when migration
// fails. The two-phase shape preserves the paper's order — clean
// persisted outputs first (free to drop), dirty outputs queued for
// write-back, then LRU inputs by migration with eviction as last
// resort.
type Plan struct {
	First []Step
	// WriteBacks lists dirty objects whose write-back the executor
	// triggers asynchronously (they are freed later, off the critical
	// path, and never count toward the synchronous need).
	WriteBacks []string
	Second     []Step
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

// Spec names one point in the policy design space: an eviction
// policy and a slack estimator. Empty fields mean the paper's
// threshold eviction and window slack.
type Spec struct {
	Eviction string
	Slack    string
}

// Policies is one node's instantiated policy set. Each agent owns its
// own instances — eviction state (GDSF priorities, LRU bookkeeping) is
// per node.
type Policies struct {
	Eviction EvictionPolicy
	Slack    SlackEstimator
}

// EvictionPolicies lists the registered eviction-policy names, in
// registry order.
func EvictionPolicies() []string { return []string{"threshold", "lru", "gdsf"} }

// SlackEstimators lists the registered estimator names.
func SlackEstimators() []string { return []string{"window", "static"} }

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
