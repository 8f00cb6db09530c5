package overload

import (
	"time"

	"ofc/internal/sim"
)

// The retry budget is a token bucket with burst capacity refilling at
// refillPerSecond (virtual time). Every retry — faas OOM re-executions
// and storage-layer re-attempts alike — spends one token, so the whole
// platform's retry volume over any window w is bounded by
// burst + refillPerSecond·w and failures cannot amplify into retry
// storms. The bucket is small so that the OOM retries of the overload
// drill's spike (experiments/overload.go) press against it.
const (
	burst           = 20
	refillPerSecond = 2
)

// BudgetStats counts budget decisions.
type BudgetStats struct {
	Granted int64
	Denied  int64
}

// RetryBudget is a deterministic token bucket on the virtual clock.
// Refill is lazy: tokens accrue on each Allow call from the elapsed
// virtual time, so the budget costs nothing while idle.
type RetryBudget struct {
	env *sim.Env

	tokens  float64
	last    sim.Time
	granted int64
	denied  int64
}

// NewRetryBudget returns a full bucket bound to env.
func NewRetryBudget(env *sim.Env) *RetryBudget {
	return &RetryBudget{env: env, tokens: burst, last: env.Now()}
}

// Allow spends one token if available and reports whether the retry
// may proceed.
func (b *RetryBudget) Allow() bool {
	now := b.env.Now()
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		b.granted++
		return true
	}
	b.denied++
	return false
}

func (b *RetryBudget) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += (now - b.last).Seconds() * refillPerSecond
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
}

// Remaining reports the tokens currently available.
func (b *RetryBudget) Remaining() float64 {
	now := b.env.Now()
	b.refill(now)
	return b.tokens
}

// Stats snapshots the grant/deny counters.
func (b *RetryBudget) Stats() BudgetStats {
	return BudgetStats{Granted: b.granted, Denied: b.denied}
}

// Cap is the theoretical maximum number of grants over a window: the
// experiment's "no retry storm" assertion checks total retries against
// it.
func (b *RetryBudget) Cap(window time.Duration) float64 {
	return burst + window.Seconds()*refillPerSecond
}
