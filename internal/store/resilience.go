package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// ResilienceConfig tunes the Resilient middleware: per-operation
// deadlines, bounded retry with exponential backoff and jitter, and a
// per-server circuit breaker that short-circuits while a node
// recovers.
type ResilienceConfig struct {
	// OpTimeout is the deadline for one cache operation attempt.
	OpTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first try.
	MaxRetries int
	// RetryBase is the first backoff; it doubles per attempt up to
	// RetryMax. Jitter randomizes each backoff by ±Jitter fraction.
	RetryBase time.Duration
	RetryMax  time.Duration
	Jitter    float64
	// BreakerThreshold consecutive unavailability errors against one
	// server open its breaker; while open, cache ops targeting it fail
	// fast (straight to the RSDS). After BreakerCooldown a probe is
	// allowed through (half-open).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PersistRetryDelay is how long a Persistor waits before retrying
	// when the cache is unavailable; the pending write-back is never
	// dropped (acked writes survive in backup replicas).
	PersistRetryDelay time.Duration
}

// DefaultResilienceConfig returns constants sized for the testbed:
// timeouts well above healthy op latency, a breaker that trips within
// a handful of failed ops, and a cooldown on the order of RAMCloud's
// fast recovery.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		OpTimeout:         100 * time.Millisecond,
		MaxRetries:        2,
		RetryBase:         5 * time.Millisecond,
		RetryMax:          50 * time.Millisecond,
		Jitter:            0.2,
		BreakerThreshold:  3,
		BreakerCooldown:   time.Second,
		PersistRetryDelay: 500 * time.Millisecond,
	}
}

// Sentinel errors of the resilience layer.
var (
	ErrCacheTimeout = errors.New("store: cache operation timed out")
	ErrBreakerOpen  = errors.New("store: cache circuit breaker open")
	// ErrRetryBudget marks an op whose re-attempt the RetryGate denied;
	// it wraps the last attempt's error, so unavailability
	// classification still holds and callers fall back normally.
	ErrRetryBudget = errors.New("store: retry denied by retry budget")
)

// RetryGate arbitrates storage re-attempts (the overload layer's
// retry budget, shared with the FaaS platform's OOM retries). A nil
// gate means unbounded retries per the ResilienceConfig.
type RetryGate interface {
	AllowRetry() bool
}

// IsUnavailable classifies errors that mean "the cache cannot serve
// this right now" — the triggers for RSDS fallback — as opposed to
// definitive answers like ErrNotFound or ErrNoSpace.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, kvstore.ErrCrashed) ||
		errors.Is(err, kvstore.ErrNoSuchServer) ||
		errors.Is(err, kvstore.ErrNotEnoughSrvs) ||
		errors.Is(err, simnet.ErrUnreachable) ||
		errors.Is(err, ErrCacheTimeout) ||
		errors.Is(err, ErrBreakerOpen)
}

// breaker is one server's circuit-breaker state. failures counts
// consecutive unavailability errors; once it reaches the threshold the
// breaker is open until openUntil, after which one probe is let
// through (half-open): success closes it, failure re-opens.
type breaker struct {
	failures  int
	openUntil sim.Time
}

// ResilienceStats are the degradation counters of one Resilient layer.
type ResilienceStats struct {
	Retries      int64
	Timeouts     int64
	BreakerTrips int64
	// BudgetDenied counts re-attempts refused by the RetryGate.
	BudgetDenied int64
}

// Resilient wraps a Backend's Read and Write with per-attempt
// timeouts, bounded jittered retry and per-server circuit breakers —
// the graceful-degradation layer that used to live inside RCLib.
// Metadata ops and the batch paths pass through untouched (batch ops
// carry their own fallback semantics in the chunking layer above).
type Resilient struct {
	inner Backend
	env   *sim.Env
	pv    PlacementView // breaker target resolution; may be nil

	mu       sync.Mutex
	cfg      ResilienceConfig
	rng      *rand.Rand
	breakers map[simnet.NodeID]*breaker
	gate     RetryGate
	retries  int64
	timeouts int64
	trips    int64
	denied   int64
}

// NewResilient wraps inner with the degradation layer.
func NewResilient(env *sim.Env, inner Backend, cfg ResilienceConfig) *Resilient {
	r := &Resilient{
		inner:    inner,
		env:      env,
		cfg:      cfg,
		rng:      env.NewRand(),
		breakers: make(map[simnet.NodeID]*breaker),
	}
	r.pv, _ = PlacementViewOf(inner)
	return r
}

// Unwrap implements Wrapper.
func (r *Resilient) Unwrap() Backend { return r.inner }

// SetRetryGate installs (or, with nil, removes) the shared retry
// budget consulted before every re-attempt.
func (r *Resilient) SetRetryGate(g RetryGate) {
	r.mu.Lock()
	r.gate = g
	r.mu.Unlock()
}

// Stats snapshots the degradation counters.
func (r *Resilient) Stats() ResilienceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResilienceStats{Retries: r.retries, Timeouts: r.timeouts, BreakerTrips: r.trips, BudgetDenied: r.denied}
}

// BreakerState exposes one server's breaker for tests and debugging.
func (r *Resilient) BreakerState(node simnet.NodeID) (failures int, open bool) {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil {
		return 0, false
	}
	return s.failures, s.failures >= r.cfg.BreakerThreshold && now < s.openUntil
}

// allow reports whether an op against node may proceed (breaker closed
// or half-open probe).
func (r *Resilient) allow(node simnet.NodeID) bool {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil || s.failures < r.cfg.BreakerThreshold {
		return true
	}
	return now >= s.openUntil
}

// report records an op outcome against node.
func (r *Resilient) report(node simnet.NodeID, ok bool) {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil {
		s = &breaker{}
		r.breakers[node] = s
	}
	if ok {
		s.failures = 0
		return
	}
	s.failures++
	if s.failures >= r.cfg.BreakerThreshold {
		if s.failures == r.cfg.BreakerThreshold {
			r.trips++
		}
		s.openUntil = now + r.cfg.BreakerCooldown
	}
}

// backoff computes the jittered exponential backoff for re-attempt n
// (n >= 1).
func (r *Resilient) backoff(n int) time.Duration {
	r.mu.Lock()
	cfg := r.cfg
	r.mu.Unlock()
	d := cfg.RetryBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= cfg.RetryMax {
			d = cfg.RetryMax
			break
		}
	}
	if d > cfg.RetryMax {
		d = cfg.RetryMax
	}
	if cfg.Jitter > 0 {
		r.mu.Lock()
		f := 1 + cfg.Jitter*(2*r.rng.Float64()-1)
		r.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// target picks the breaker key for ops on key: the current master if
// placement is known, otherwise the node the op would prefer.
func (r *Resilient) target(key string, fallback simnet.NodeID) simnet.NodeID {
	if r.pv != nil {
		if m, ok := r.pv.MasterOf(key); ok {
			return m
		}
	}
	return fallback
}

// attempt runs op with the per-attempt deadline, retry loop and
// breaker bookkeeping shared by Read and Write.
func attempt[T any](r *Resilient, target simnet.NodeID, op func() (T, error)) (T, error) {
	var zero T
	if !r.allow(target) {
		return zero, ErrBreakerOpen
	}
	r.mu.Lock()
	cfg := r.cfg
	gate := r.gate
	r.mu.Unlock()
	var lastErr error
	for try := 0; try <= cfg.MaxRetries; try++ {
		if try > 0 {
			if gate != nil && !gate.AllowRetry() {
				r.mu.Lock()
				r.denied++
				r.mu.Unlock()
				return zero, fmt.Errorf("%w: %w", ErrRetryBudget, lastErr)
			}
			r.env.Sleep(r.backoff(try))
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
		}
		type res struct {
			v   T
			err error
		}
		f := sim.NewFuture[res](r.env)
		r.env.Go(func() {
			v, err := op()
			f.Set(res{v, err})
		})
		out, ok := f.WaitTimeout(cfg.OpTimeout)
		if !ok {
			lastErr = ErrCacheTimeout
			r.mu.Lock()
			r.timeouts++
			r.mu.Unlock()
			r.report(target, false)
			continue
		}
		if IsUnavailable(out.err) {
			lastErr = out.err
			r.report(target, false)
			continue
		}
		r.report(target, true)
		return out.v, out.err
	}
	return zero, lastErr
}

type readRes struct {
	blob Blob
	meta Meta
}

// Read implements Backend with timeout/retry/breaker. Definitive
// answers (hit, NotFound) return immediately; only unavailability is
// retried.
func (r *Resilient) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	out, err := attempt(r, r.target(key, caller), func() (readRes, error) {
		blob, meta, err := r.inner.Read(caller, key)
		return readRes{blob, meta}, err
	})
	return out.blob, out.meta, err
}

// Write implements Backend, mirroring Read. ErrNoSpace and ErrTooLarge
// are definitive (capacity, not availability) and return immediately.
func (r *Resilient) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	return attempt(r, r.target(key, preferred), func() (uint64, error) {
		return r.inner.Write(caller, key, blob, tags, preferred)
	})
}

// The remaining ops pass through: they are either local bookkeeping
// (Evict), tiny control messages whose failure the callers already
// tolerate (Stat, SetTag, Delete), or batch paths with their own
// failure semantics.

func (r *Resilient) Stat(caller simnet.NodeID, key string) (Meta, error) {
	return r.inner.Stat(caller, key)
}

func (r *Resilient) SetTag(caller simnet.NodeID, key, tag, value string) error {
	return r.inner.SetTag(caller, key, tag, value)
}

func (r *Resilient) Delete(caller simnet.NodeID, key string) error {
	return r.inner.Delete(caller, key)
}

func (r *Resilient) Evict(key string) error { return r.inner.Evict(key) }

func (r *Resilient) MaxObjectSize() int64 { return r.inner.MaxObjectSize() }

// ReadMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	return ReadMulti(r.inner, caller, keys)
}

// WriteMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	return WriteMulti(r.inner, caller, items, preferred)
}
