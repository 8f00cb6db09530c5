// Package overload implements end-to-end overload control for the OFC
// testbed: bounded admission queues with per-tenant fair dequeue and
// CoDel-style staleness shedding, a token-bucket retry budget shared by
// every subsystem that re-executes work, and a signal-driven
// graceful-degradation state machine (Normal → Brownout → Shed).
//
// OFC's cache is *opportunistic* — its memory can be reclaimed at any
// moment (§6.4) — so a traffic spike simultaneously shrinks the cache,
// adds invocations, and risks retry storms from OOM kills and breaker
// trips. The paper never says what happens when demand exceeds spare
// capacity; this package is that missing robustness layer. Faa$T
// argues a serverless cache must scale *down* gracefully with load,
// and COCOA that FaaS platforms need capacity-aware admission to avoid
// cold-start collapse; both shaped the design.
//
// The package depends only on the virtual clock (internal/sim): no
// wall-clock reads, no randomness. Higher layers (internal/core) wire
// its pieces into the FaaS platform, the storage middleware and the
// cache agents through the interfaces those packages already expose.
package overload

import "fmt"

// State is the platform-wide degradation level.
type State int

const (
	// Normal: full service — cache admissions on, locality routing on,
	// standard queue bounds.
	Normal State = iota
	// Brownout: capacity pressure — low-benefit functions are forced to
	// the passthrough (direct-RSDS) data path so the cache keeps only
	// its hot set, agents evict aggressively, locality routing yields
	// to load spreading. All admitted work still completes.
	Brownout
	// Shed: demand exceeds capacity — per-tenant queue bounds tighten
	// and excess load is rejected with ErrShed instead of queueing
	// without bound. Brownout measures stay in force.
	Shed
)

// String names the state for reports and transition logs.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Brownout:
		return "brownout"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}
