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

// The Resilient middleware's timings, sized for the testbed: timeouts
// well above healthy op latency, a breaker that trips within a handful
// of failed ops, and a cooldown on the order of RAMCloud's fast
// recovery.
const (
	// opTimeout is the deadline for one cache operation attempt.
	opTimeout = 100 * time.Millisecond
	// maxRetries is the number of re-attempts after the first try.
	maxRetries = 2
	// retryBase is the first backoff; it doubles per attempt up to
	// retryMax. Jitter randomizes each backoff by ±jitter fraction.
	retryBase = 5 * time.Millisecond
	retryMax  = 50 * time.Millisecond
	jitter    = 0.2
	// breakerThreshold consecutive unavailability errors against one
	// server open its breaker; while open, cache ops targeting it fail
	// fast (straight to the RSDS). After breakerCooldown a probe is
	// allowed through (half-open).
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// ResilienceConfig is what a Resilient layer takes from its owner
// beside the constants above.
type ResilienceConfig struct {
	// Gate, when non-nil, is consulted before every re-attempt (the
	// overload layer's shared retry budget); nil means maxRetries
	// alone bounds them.
	Gate RetryGate
}

// DefaultResilienceConfig returns a config without a retry gate.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{}
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

// Resilient wraps a ChainBackend's Read and Write with per-attempt
// timeouts, bounded jittered retry and per-server circuit breakers —
// the graceful-degradation layer that used to live inside RCLib.
// Metadata ops and the batch paths pass through untouched (batch ops
// carry their own fallback semantics in the chunking layer above).
type Resilient struct {
	inner ChainBackend
	env   *sim.Env
	pv    PlacementView // breaker target resolution; nil when inner has no placement
	gate  RetryGate     // nil: maxRetries alone bounds re-attempts

	// free holds finished call records for reuse (see call).
	free []*call

	rng      *rand.Rand
	breakers map[simnet.NodeID]*breaker
	stats    ResilienceStats
}

// NewResilient wraps inner with the degradation layer. Its breakers key
// on the master of each op's key when inner is a PlacementView.
func NewResilient(env *sim.Env, inner ChainBackend, cfg ResilienceConfig) *Resilient {
	r := &Resilient{
		inner:    inner,
		env:      env,
		gate:     cfg.Gate,
		rng:      env.NewRand(),
		breakers: make(map[simnet.NodeID]*breaker),
	}
	r.pv, _ = inner.(PlacementView)
	return r
}

// Stats snapshots the degradation counters.
func (r *Resilient) Stats() ResilienceStats { return r.stats }

// BreakerState exposes one server's breaker for tests and debugging.
func (r *Resilient) BreakerState(node simnet.NodeID) (failures int, open bool) {
	now := r.env.Now()
	s := r.breakers[node]
	if s == nil {
		return 0, false
	}
	return s.failures, s.failures >= breakerThreshold && now < s.openUntil
}

// allow reports whether an op against node may proceed (breaker closed
// or half-open probe).
func (r *Resilient) allow(node simnet.NodeID) bool {
	now := r.env.Now()
	s := r.breakers[node]
	if s == nil || s.failures < breakerThreshold {
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
	if s.failures >= breakerThreshold {
		if s.failures == breakerThreshold {
			r.stats.BreakerTrips++
		}
		s.openUntil = now + breakerCooldown
	}
}

// backoff computes the jittered exponential backoff for re-attempt n
// (n >= 1).
func (r *Resilient) backoff(n int) time.Duration {
	d := retryBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= retryMax {
			d = retryMax
			break
		}
	}
	f := 1 + jitter*(2*r.rng.Float64()-1)
	return time.Duration(float64(d) * f)
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
	st        *State
	preferred simnet.NodeID
}

// opResult is what the inner backend answered.
type opResult struct {
	blob    Blob
	meta    Meta
	version uint64
	err     error
}

// call is one attempt: the future its answer lands on, and the done
// continuations, bound once when the record is made, that the inner
// op's chain answers through. A record has two ends, the caller's
// timed wait and the chain, and whichever finishes last recycles it
// through Resilient.free: the caller when it took the answer, the
// chain when its caller timed out (abandoned) and it answers nobody.
type call struct {
	r         *Resilient
	reply     *sim.Future[opResult]
	abandoned bool
	read      func(ReadResult)  // c.readDone
	wrote     func(WriteResult) // c.writeDone
}

// readDone answers a Read attempt.
func (c *call) readDone(res ReadResult) {
	c.answer(opResult{blob: res.Blob, meta: res.Meta, err: res.Err})
}

// writeDone answers a Write attempt.
func (c *call) writeDone(res WriteResult) {
	c.answer(opResult{version: res.Version, err: res.Err})
}

// answer sets the reply, and recycles the record if its caller is gone.
func (c *call) answer(out opResult) {
	c.reply.Set(out)
	if c.abandoned {
		c.r.recycle(c)
	}
}

// newCall takes a record from the free list, or makes one.
func (r *Resilient) newCall() *call {
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free = r.free[:n-1]
		return c
	}
	c := &call{r: r, reply: sim.NewFuture[opResult](r.env)}
	c.read, c.wrote = c.readDone, c.writeDone
	return c
}

// recycle returns an answered record to the free list.
func (r *Resilient) recycle(c *call) {
	c.abandoned = false
	c.reply.Reset()
	r.free = append(r.free, c)
}

// attempt runs the op args describes with the per-attempt deadline,
// retry loop and breaker bookkeeping shared by Read and Write. Each
// attempt starts the inner op's chain and races it against the
// deadline, parking the caller once: when the deadline wins, the
// caller backs off and retries while the chain runs on to its end, as
// a timed-out RPC does, landing its write and booking its NICs.
func (r *Resilient) attempt(target simnet.NodeID, args opArgs) opResult {
	if !r.allow(target) {
		return opResult{err: ErrBreakerOpen}
	}
	var lastErr error
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			if r.gate != nil && !r.gate.AllowRetry() {
				r.stats.BudgetDenied++
				return opResult{err: fmt.Errorf("%w: %w", ErrRetryBudget, lastErr)}
			}
			r.env.Sleep(r.backoff(try))
			r.stats.Retries++
		}
		c := r.newCall()
		if args.write {
			r.inner.WriteThen(args.caller, args.key, args.blob, args.st, args.preferred, c.wrote)
		} else {
			r.inner.ReadThen(args.caller, args.key, c.read)
		}
		out, ok := c.reply.WaitTimeout(opTimeout)
		if !ok {
			c.abandoned = true
			lastErr = ErrCacheTimeout
			r.stats.Timeouts++
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
func (r *Resilient) Write(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID) (uint64, error) {
	out := r.attempt(r.target(key, preferred), opArgs{write: true, caller: caller, key: key, blob: blob, st: st, preferred: preferred})
	return out.version, out.err
}

// The remaining ops pass through: they are either local bookkeeping
// (Evict), a tiny control message whose failure the callers already
// tolerate (MarkClean), or batch paths with their own failure semantics.

func (r *Resilient) MarkClean(caller simnet.NodeID, key string, version uint64) error {
	return r.inner.MarkClean(caller, key, version)
}

func (r *Resilient) Evict(key string, version uint64) error { return r.inner.Evict(key, version) }

func (r *Resilient) MaxObjectSize() int64 { return r.inner.MaxObjectSize() }

// ReadMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	return r.inner.ReadMulti(caller, keys)
}

// WriteMulti implements BatchBackend via the inner engine's batch path.
func (r *Resilient) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	return r.inner.WriteMulti(caller, items, preferred)
}
