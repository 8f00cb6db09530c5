package store

import (
	"errors"
	"fmt"
	"math/rand"
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
	// Gate, when non-nil, is consulted before every re-attempt (the
	// overload layer's shared retry budget); nil means MaxRetries
	// alone bounds them.
	Gate RetryGate
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
// retry budget, shared with the FaaS platform's OOM retries).
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

// Resilient wraps a BatchBackend's Read and Write with per-attempt
// timeouts, bounded jittered retry and per-server circuit breakers —
// the graceful-degradation layer that used to live inside RCLib.
// Metadata ops and the batch paths pass through untouched (batch ops
// carry their own fallback semantics in the chunking layer above).
type Resilient struct {
	inner BatchBackend
	env   *sim.Env
	pv    PlacementView // breaker target resolution; nil when inner has no placement
	cfg   ResilienceConfig

	// free holds answered call records for reuse (see call).
	free []*call

	rng      *rand.Rand
	breakers map[simnet.NodeID]*breaker
	retries  int64
	timeouts int64
	trips    int64
	denied   int64
}

// NewResilient wraps inner with the degradation layer. Its breakers key
// on the master of each op's key when inner is a PlacementView.
func NewResilient(env *sim.Env, inner BatchBackend, cfg ResilienceConfig) *Resilient {
	r := &Resilient{
		inner:    inner,
		env:      env,
		cfg:      cfg,
		rng:      env.NewRand(),
		breakers: make(map[simnet.NodeID]*breaker),
	}
	r.pv, _ = inner.(PlacementView)
	return r
}

// Stats snapshots the degradation counters.
func (r *Resilient) Stats() ResilienceStats {
	return ResilienceStats{Retries: r.retries, Timeouts: r.timeouts, BreakerTrips: r.trips, BudgetDenied: r.denied}
}

// BreakerState exposes one server's breaker for tests and debugging.
func (r *Resilient) BreakerState(node simnet.NodeID) (failures int, open bool) {
	now := r.env.Now()
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
	s := r.breakers[node]
	if s == nil || s.failures < r.cfg.BreakerThreshold {
		return true
	}
	return now >= s.openUntil
}

// report records an op outcome against node.
func (r *Resilient) report(node simnet.NodeID, ok bool) {
	now := r.env.Now()
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
	d := r.cfg.RetryBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= r.cfg.RetryMax {
			d = r.cfg.RetryMax
			break
		}
	}
	if d > r.cfg.RetryMax {
		d = r.cfg.RetryMax
	}
	if r.cfg.Jitter > 0 {
		f := 1 + r.cfg.Jitter*(2*r.rng.Float64()-1)
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

// opArgs are the arguments of one Read or Write through the layer.
type opArgs struct {
	write     bool
	caller    simnet.NodeID
	key       string
	blob      Blob
	tags      map[string]string
	preferred simnet.NodeID
}

// opResult is what the inner backend answered.
type opResult struct {
	blob    Blob
	meta    Meta
	version uint64
	err     error
}

// call is one attempt: the op's arguments, the future its answer lands
// on, and run, the process body that makes the op, bound once when the
// record is made. Records are recycled through Resilient.free under one
// rule: a record goes back only once its answer has been taken. A
// timed-out attempt's record stays with its op, which still runs and
// will Set the future, and is garbage once that op returns.
type call struct {
	inner Backend
	args  opArgs
	reply *sim.Future[opResult]
	run   func()
}

// body makes the op against the inner backend and answers it.
func (c *call) body() {
	var out opResult
	a := &c.args
	if a.write {
		out.version, out.err = c.inner.Write(a.caller, a.key, a.blob, a.tags, a.preferred)
	} else {
		out.blob, out.meta, out.err = c.inner.Read(a.caller, a.key)
	}
	c.reply.Set(out) // the last touch: once answered, the record may be reused
}

// newCall takes a record from the free list, or makes one, for args.
func (r *Resilient) newCall(args opArgs) *call {
	var c *call
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		c = &call{inner: r.inner, reply: sim.NewFuture[opResult](r.env)}
		c.run = c.body
	}
	c.args = args
	return c
}

// recycle returns an answered record to the free list.
func (r *Resilient) recycle(c *call) {
	c.args = opArgs{}
	c.reply.Reset()
	r.free = append(r.free, c)
}

// attempt runs the op args describes with the per-attempt deadline,
// retry loop and breaker bookkeeping shared by Read and Write. Each
// attempt is its own process, so that a timed-out op runs on, as a
// timed-out RPC does, while the caller retries.
func (r *Resilient) attempt(target simnet.NodeID, args opArgs) opResult {
	if !r.allow(target) {
		return opResult{err: ErrBreakerOpen}
	}
	var lastErr error
	for try := 0; try <= r.cfg.MaxRetries; try++ {
		if try > 0 {
			if r.cfg.Gate != nil && !r.cfg.Gate.AllowRetry() {
				r.denied++
				return opResult{err: fmt.Errorf("%w: %w", ErrRetryBudget, lastErr)}
			}
			r.env.Sleep(r.backoff(try))
			r.retries++
		}
		c := r.newCall(args)
		r.env.Go(c.run)
		out, ok := c.reply.WaitTimeout(r.cfg.OpTimeout)
		if !ok {
			lastErr = ErrCacheTimeout
			r.timeouts++
			r.report(target, false)
			continue
		}
		r.recycle(c)
		if IsUnavailable(out.err) {
			lastErr = out.err
			r.report(target, false)
			continue
		}
		r.report(target, true)
		return out
	}
	return opResult{err: lastErr}
}

// Read implements Backend with timeout/retry/breaker. Definitive
// answers (hit, NotFound) return immediately; only unavailability is
// retried.
func (r *Resilient) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	out := r.attempt(r.target(key, caller), opArgs{caller: caller, key: key})
	return out.blob, out.meta, out.err
}

// Write implements Backend, mirroring Read. ErrNoSpace and ErrTooLarge
// are definitive (capacity, not availability) and return immediately.
func (r *Resilient) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	out := r.attempt(r.target(key, preferred), opArgs{write: true, caller: caller, key: key, blob: blob, tags: tags, preferred: preferred})
	return out.version, out.err
}

// The remaining ops pass through: they are either local bookkeeping
// (Evict), a tiny control message whose failure the callers already
// tolerate (SetTag), or batch paths with their own failure semantics.

func (r *Resilient) SetTag(caller simnet.NodeID, key, tag, value string) error {
	return r.inner.SetTag(caller, key, tag, value)
}

func (r *Resilient) Evict(key string) error { return r.inner.Evict(key) }

func (r *Resilient) MaxObjectSize() int64 { return r.inner.MaxObjectSize() }

// ReadMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	return r.inner.ReadMulti(caller, keys)
}

// WriteMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	return r.inner.WriteMulti(caller, items, preferred)
}
