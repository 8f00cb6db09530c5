package core

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofc/internal/faas"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/trace"
)

// RCLib is OFC's Proxy + rclib (paper §4, §6.2): the storage layer
// interposed between function code and the RSDS. Reads are served from
// the cache backend when possible; writes of cacheable objects go to
// the cache with a synchronous shadow placeholder in the RSDS and an
// asynchronous Persistor function carrying the payload later.
//
// The proxy programs against store.Backend, never a concrete engine.
// At construction it assembles its middleware stack over the engine it
// was given:
//
//	Instrumented → Chunked (off by default) → Resilient → engine
//
// A Durable engine (the cache-off RSDS passthrough) skips the
// Resilient layer and the whole shadow/persistor protocol: its writes
// are durable on ack and its reads are not cache hits.
type RCLib struct {
	env  *sim.Env
	rsds *objstore.Store

	// base is the raw storage engine; be is the top of the middleware
	// stack every data-plane op goes through.
	base    store.Backend
	be      store.Backend
	resil   *store.Resilient // nil for durable engines
	chunked *store.Chunked
	inst    *store.Instrumented
	pv      store.PlacementView // nil when the engine has no placement
	durable bool

	// platform is set after construction (the Persistor is itself a
	// FaaS function injected into the platform).
	platform  *faas.Platform
	persistFn *faas.Function

	mu sync.Mutex
	// pipelines tracks intermediate object keys per pipeline instance
	// (control-plane state: only touched at intermediate Put and
	// pipeline completion).
	pipelines map[string][]string

	// pending maps keys to futures resolved when their latest payload
	// has been persisted (external-read webhook barrier). Its own lock,
	// not mu: the write-back protocol probes it on every miss and every
	// persist.
	pendingMu sync.Mutex
	pending   map[string]*sim.Future[struct{}]

	// gate, when set, is the memory control plane's write-admission
	// veto: missed inputs are only admitted into the cache when the
	// owning node's eviction policy agrees, and cache hits are
	// reported back so frequency-keeping policies see accesses. Read
	// on every Get, so it lives behind an atomic pointer, not rc.mu.
	gate atomic.Pointer[gateHolder]
	// relaxed holds key prefixes (buckets/accounts) whose tenants
	// disabled the §6.2 strong-consistency facilities: no shadow
	// objects, no eager persistors; writes propagate lazily on
	// eviction, persistence rides on the cache's replication.
	// Copy-on-write: SetRelaxed is rare, isRelaxed runs per final Put.
	relaxed atomic.Pointer[[]string]
	// brownout is the overload controller's degradation switch: miss
	// admissions stop and non-intermediate writes take the synchronous
	// durable RSDS path (per-request Passthrough/CacheOff), so the
	// cache keeps only its existing hot set and the write path stops
	// depending on cache capacity.
	brownout atomic.Bool

	// tracer records cache.get/cache.put/rsds.fetch spans (nil = off;
	// set before traffic starts). Get/Put branch into their untraced
	// bodies on nil, keeping the warm-hit path's allocation profile.
	tracer *trace.Tracer

	// coalesce enables miss coalescing (Options.CoalesceMisses): N
	// concurrent misses of one key on one node issue a single RSDS
	// fetch and at most one admission. Off by default — coalescing
	// changes simulated fetch timing, and the faithful-paper
	// configuration (like chunking) is the uncoalesced one.
	coalesce bool
	flightMu sync.Mutex
	flights  map[flightKey]*sim.Future[getResult]

	// persistRetryDelay is how long a failed write-back waits before
	// the next persistor attempt.
	persistRetryDelay time.Duration

	// Data-plane counters. Single atomics, not a mutex block: every
	// Get/Put increments a couple of them, and the old statsMu made
	// those increments the one place the whole cache path serialized.
	hits      atomic.Int64
	localHits atomic.Int64
	misses    atomic.Int64
	// Ephemeral (pipeline-intermediate) accesses tracked separately:
	// intra-pipeline hits are structural and would mask the input
	// hit ratio the paper's Table 2 reports.
	ephemHits     atomic.Int64
	ephemMisses   atomic.Int64
	admissions    atomic.Int64
	admitVetoes   atomic.Int64
	writeBacks    atomic.Int64
	bypassWrites  atomic.Int64
	ephemeral     atomic.Int64 // bytes of intermediate+final outputs produced
	missCoalesced atomic.Int64 // followers served by another caller's in-flight fetch
	// degradation counters (retries/timeouts/trips live in the
	// Resilient middleware)
	fallbackReads  atomic.Int64
	fallbackWrites atomic.Int64
	// brownout counters: admissions skipped and writes diverted to the
	// durable path while degraded.
	brownoutSkips    atomic.Int64
	brownoutBypasses atomic.Int64
}

// gateHolder wraps the AdmissionGate interface so it can live in an
// atomic.Pointer.
type gateHolder struct{ g AdmissionGate }

// getResult is what a coalesced miss hands its followers.
type getResult struct {
	blob faas.Blob
	err  error
}

// flightKey identifies one in-flight miss fetch: coalescing is per
// (node, key) — each node still fetches its own copy, preserving the
// locality the router works for.
type flightKey struct {
	node simnet.NodeID
	key  string
}

// NewRCLib builds the proxy over a storage engine and the RSDS. Any
// store.Backend works: *kvstore.Cluster for the paper configuration,
// store.NewPassthrough(rsds) for cache-off mode.
func NewRCLib(env *sim.Env, backend store.Backend, rsds *objstore.Store) *RCLib {
	res := store.DefaultResilienceConfig()
	rc := &RCLib{
		env:               env,
		rsds:              rsds,
		base:              backend,
		pipelines:         make(map[string][]string),
		pending:           make(map[string]*sim.Future[struct{}]),
		flights:           make(map[flightKey]*sim.Future[getResult]),
		persistRetryDelay: res.PersistRetryDelay,
	}
	rc.durable = store.IsDurable(backend)
	rc.pv, _ = store.PlacementViewOf(backend)

	// Assemble the middleware stack bottom-up.
	b := backend
	if !rc.durable {
		rc.resil = store.NewResilient(env, b, res)
		b = rc.resil
	}
	rc.chunked = store.NewChunked(b, store.DefaultChunkSize)
	rc.inst = store.NewInstrumented(rc.chunked)
	rc.inst.AttachClock(env)
	rc.be = rc.inst

	// Consistency webhooks for non-FaaS clients (§6.2).
	rsds.OnRead(func(key string, m objstore.Meta) {
		if !m.IsShadow() {
			return
		}
		if f := rc.pendingFuture(key); f != nil {
			f.Wait() // the persistor is already scheduled; block until done
		}
	})
	rsds.OnWrite(func(key string) {
		// Synchronously invalidate the cached copy before an external
		// write lands.
		rc.be.Evict(key)
	})
	return rc
}

// Backend returns the top of the proxy's middleware stack (tests and
// experiment harnesses).
func (rc *RCLib) Backend() store.Backend { return rc.be }

// StoreStats reports the raw backend-operation counters from the
// instrumentation middleware.
func (rc *RCLib) StoreStats() store.OpStats { return rc.inst.Stats() }

// EnableChunking turns the large-object striping extension on (§6.1
// future work; off by default to keep the faithful-paper
// configuration).
func (rc *RCLib) EnableChunking() { rc.chunked.Enable() }

// BreakerState exposes one server's breaker for tests and debugging.
func (rc *RCLib) BreakerState(node simnet.NodeID) (failures int, open bool) {
	if rc.resil == nil {
		return 0, false
	}
	return rc.resil.BreakerState(node)
}

// SetRetryGate installs the shared retry budget on the proxy's
// resilience middleware (no-op for durable engines, which never retry).
func (rc *RCLib) SetRetryGate(g store.RetryGate) {
	if rc.resil != nil {
		rc.resil.SetRetryGate(g)
	}
}

// AdmissionGate is the memory control plane's view of the proxy's
// write path (implemented by the Governor, routing to the per-node
// agents' EvictionPolicy). Both calls are pure bookkeeping — no
// simulated time passes inside them.
type AdmissionGate interface {
	// AdmitObject decides whether a missed input may be admitted into
	// node's cache; benefit is the predictor's caching-benefit score.
	AdmitObject(node simnet.NodeID, key string, size int64, benefit float64) bool
	// TouchObject reports a cache hit on an object mastered on node.
	TouchObject(node simnet.NodeID, key string)
}

// SetAdmissionGate installs the control plane's admission veto. Call
// before traffic starts.
func (rc *RCLib) SetAdmissionGate(g AdmissionGate) {
	rc.gate.Store(&gateHolder{g: g})
}

// admissionGate reads the gate (lock-free; it sits on every Get).
func (rc *RCLib) admissionGate() AdmissionGate {
	if h := rc.gate.Load(); h != nil {
		return h.g
	}
	return nil
}

// SetTracer attaches the span recorder. Call before traffic starts.
func (rc *RCLib) SetTracer(tr *trace.Tracer) { rc.tracer = tr }

// SetBrownout switches the proxy's degradation mode (see the brownout
// field).
func (rc *RCLib) SetBrownout(on bool) { rc.brownout.Store(on) }

// inBrownout reads the degradation switch.
func (rc *RCLib) inBrownout() bool { return rc.brownout.Load() }

// StoreLatencyP99 reports the p99 of recent backend op latencies (the
// degradation controller's store-health signal).
func (rc *RCLib) StoreLatencyP99() time.Duration {
	return rc.inst.LatencyQuantile(0.99)
}

// SetRelaxed marks a key prefix (the paper's bucket/object/account
// granularity) as relaxed-consistency (§6.2): cacheable writes under
// it skip the synchronous shadow placeholder and the eager Persistor;
// dirty data reaches the RSDS only when the cacheAgent evicts it.
func (rc *RCLib) SetRelaxed(prefix string) {
	rc.mu.Lock() // serialize concurrent SetRelaxed calls
	defer rc.mu.Unlock()
	var cur []string
	if p := rc.relaxed.Load(); p != nil {
		cur = *p
	}
	next := make([]string, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = prefix
	rc.relaxed.Store(&next)
}

// isRelaxed reports whether key falls under a relaxed prefix
// (lock-free read of the copy-on-write prefix list).
func (rc *RCLib) isRelaxed(key string) bool {
	p := rc.relaxed.Load()
	if p == nil {
		return false
	}
	for _, prefix := range *p {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

// AttachPlatform registers the Persistor helper function with the FaaS
// platform (it must be called once before any cacheable write).
func (rc *RCLib) AttachPlatform(p *faas.Platform) {
	rc.platform = p
	rc.persistFn = &faas.Function{
		Name:         "persistor",
		Tenant:       "ofc",
		MemoryBooked: 64 << 20,
		InputType:    "none",
		Body:         rc.persistBody,
	}
	p.Register(rc.persistFn)
}

// persistBody is the Persistor function (§6.2): read the payload from
// the cache, push it to the RSDS for the recorded version, then apply
// the §6.3 discard policy for final outputs. Striped objects
// reassemble transparently inside the chunking middleware.
func (rc *RCLib) persistBody(ctx *faas.Ctx) error {
	ref := ctx.Trace()
	sp := rc.tracer.Begin(ref.Trace, ref.Span, "persist", ctx.Node())
	err := rc.persistOnce(ctx, &sp)
	rc.tracer.End(&sp)
	return err
}

// persistOnce is persistBody's body (the wrapper owns the span).
func (rc *RCLib) persistOnce(ctx *faas.Ctx, sp *trace.Span) error {
	key := ctx.InputKeys()[0]
	version := uint64(ctx.Arg("version"))
	node := ctx.Node()
	blob, meta, err := rc.be.Read(node, key)
	if err != nil {
		if store.IsUnavailable(err) {
			sp.SetNum("rescheduled", 1)
			// The cache is temporarily unreachable. The acknowledged
			// payload survives in backup replicas, so the pending
			// write-back must NOT be resolved — reschedule the persist
			// for after the store has had time to recover.
			rc.env.After(rc.persistRetryDelay, func() {
				rc.schedulePersist(node, key, version)
			})
			return nil
		}
		// The object vanished (external invalidation); nothing to push.
		sp.SetNum("vanished", 1)
		rc.resolvePending(key)
		return nil
	}
	perr := rc.rsds.PersistPayload(node, key, blob, version)
	if perr == nil {
		if meta.Tags["kind"] == "final" {
			// Final outputs are discarded from the cache as soon as
			// they have been written back (§6.3).
			rc.be.Evict(key)
		} else {
			rc.be.SetTag(node, key, "dirty", "0")
		}
		rc.writeBacks.Add(1)
	}
	// A stale persist means a newer version's persistor owns the key.
	if perr == nil || errors.Is(perr, objstore.ErrStale) {
		if perr != nil {
			sp.SetNum("stale", 1)
		}
		rc.resolvePending(key)
	}
	return nil
}

// pendingFuture reads key's pending write-back future, nil if none.
func (rc *RCLib) pendingFuture(key string) *sim.Future[struct{}] {
	rc.pendingMu.Lock()
	f := rc.pending[key]
	rc.pendingMu.Unlock()
	return f
}

// ensurePending installs a pending future for key if none exists.
func (rc *RCLib) ensurePending(key string) {
	rc.pendingMu.Lock()
	if _, ok := rc.pending[key]; !ok {
		rc.pending[key] = sim.NewFuture[struct{}](rc.env)
	}
	rc.pendingMu.Unlock()
}

func (rc *RCLib) resolvePending(key string) {
	rc.pendingMu.Lock()
	f := rc.pending[key]
	delete(rc.pending, key)
	rc.pendingMu.Unlock()
	if f != nil && !f.Done() {
		f.Set(struct{}{})
	}
}

// noteGetHit is the Get-hit bookkeeping: counter increments, locality
// attribution and the control plane's access callback. Pure atomics
// plus a placement lookup — no locks, no allocations (the critical
// path pays it on every warm read).
func (rc *RCLib) noteGetHit(caller simnet.NodeID, key string, intermediate bool) {
	rc.hits.Add(1)
	if intermediate {
		rc.ephemHits.Add(1)
	}
	if rc.pv == nil {
		return
	}
	master, ok := rc.pv.MasterOf(key)
	if !ok {
		return
	}
	if master == caller {
		rc.localHits.Add(1)
	}
	if g := rc.admissionGate(); g != nil {
		g.TouchObject(master, key)
	}
}

// noteGetMiss is the Get-miss counter bookkeeping.
func (rc *RCLib) noteGetMiss(key string, unavailable bool) {
	rc.misses.Add(1)
	if unavailable {
		rc.fallbackReads.Add(1)
	}
	if rc.isEphemeralKey(key) {
		rc.ephemMisses.Add(1)
	}
}

// Get implements faas.Storage: cache first, RSDS on miss, with
// admission of cache-worthy inputs. With a durable engine every read
// is an RSDS read and counts as a miss — cache-off mode reports an
// honest zero hit ratio.
func (rc *RCLib) Get(caller simnet.NodeID, key string, opts faas.PutOpts) (faas.Blob, error) {
	if rc.tracer == nil {
		return rc.get(caller, key, opts, nil)
	}
	sp := rc.tracer.Begin(opts.Trace.Trace, opts.Trace.Span, "cache.get", caller)
	blob, err := rc.get(caller, key, opts, &sp)
	if err != nil {
		sp.SetNum("err", 1)
	}
	rc.tracer.End(&sp)
	return blob, err
}

// get is Get's body; sp (nil when tracing is off) collects the probe
// outcome: hit/miss, coalescing role, brownout/veto skips, fallback.
func (rc *RCLib) get(caller simnet.NodeID, key string, opts faas.PutOpts, sp *trace.Span) (faas.Blob, error) {
	if rc.durable {
		blob, _, err := rc.be.Read(caller, key)
		rc.noteGetMiss(key, false)
		sp.SetStr("path", "durable")
		if err != nil {
			return faas.Blob{}, err
		}
		return blob, nil
	}
	blob, meta, err := rc.be.Read(caller, key)
	if err == nil {
		rc.noteGetHit(caller, key, meta.Tags["kind"] == "intermediate")
		sp.SetNum("hit", 1)
		return blob, nil
	}
	unavailable := store.IsUnavailable(err)
	rc.noteGetMiss(key, unavailable)
	sp.SetNum("hit", 0)
	if unavailable {
		sp.SetNum("fallback", 1)
	}
	if rc.coalesce {
		return rc.getCoalesced(caller, key, opts, unavailable, sp)
	}
	res := rc.fetchMiss(caller, key, opts, unavailable, sp)
	return res.blob, res.err
}

// getCoalesced is the singleflight miss path: the first miss of a
// (node, key) becomes the leader and performs the fetch + admission;
// concurrent misses of the same pair wait on the leader's future and
// share its result, issuing no RSDS traffic of their own. Every caller
// still counts its own miss — coalescing changes the fetch fan-out,
// not the hit ratio.
func (rc *RCLib) getCoalesced(caller simnet.NodeID, key string, opts faas.PutOpts, unavailable bool, sp *trace.Span) (faas.Blob, error) {
	fk := flightKey{node: caller, key: key}
	rc.flightMu.Lock()
	if f, ok := rc.flights[fk]; ok {
		rc.flightMu.Unlock()
		rc.missCoalesced.Add(1)
		sp.SetNum("coalesced", 1)
		res := f.Wait()
		return res.blob, res.err
	}
	f := sim.NewFuture[getResult](rc.env)
	rc.flights[fk] = f
	rc.flightMu.Unlock()

	sp.SetNum("leader", 1)
	res := rc.fetchMiss(caller, key, opts, unavailable, sp)

	rc.flightMu.Lock()
	delete(rc.flights, fk)
	rc.flightMu.Unlock()
	f.Set(res)
	return res.blob, res.err
}

// fetchMiss fetches key from the RSDS (waiting out a shadow
// placeholder if one is pending) and admits cache-worthy inputs off
// the critical path.
func (rc *RCLib) fetchMiss(caller simnet.NodeID, key string, opts faas.PutOpts, unavailable bool, sp *trace.Span) getResult {
	ref := sp.Ref()
	fsp := rc.tracer.Begin(ref.Trace, ref.Span, "rsds.fetch", caller)
	blob, m, rerr := rc.rsds.Get(caller, key, false)
	if rerr == nil && m.IsShadow() {
		// The authoritative payload is a not-yet-persisted cache write
		// (we got here because the cache is unreachable). Wait for the
		// pending write-back — the Persistor retries until the cache
		// recovers — then re-read the now-persisted payload.
		if f := rc.pendingFuture(key); f != nil {
			fsp.SetNum("shadowWait", 1)
			f.Wait()
			blob, _, rerr = rc.rsds.Get(caller, key, false)
		}
	}
	if rerr != nil {
		fsp.SetNum("err", 1)
		rc.tracer.End(&fsp)
		return getResult{err: rerr}
	}
	rc.tracer.End(&fsp)
	if opts.ShouldCache && rc.inBrownout() {
		// Brownout: no new admissions — the cache serves (and keeps)
		// only what it already holds.
		rc.brownoutSkips.Add(1)
		sp.SetNum("brownoutSkip", 1)
		return getResult{blob: blob}
	}
	if opts.ShouldCache && !unavailable && blob.Size <= rc.base.MaxObjectSize() {
		// Admit off the critical path; a failed admission (no space)
		// is only a lost opportunity. Skipped while the cache is
		// unavailable — the breaker decides when to come back. The
		// admission ceiling is the engine's raw per-object limit:
		// missed inputs are not striped. The control plane's eviction
		// policy holds a veto (the paper's policy always admits).
		if g := rc.admissionGate(); g != nil && !g.AdmitObject(caller, key, blob.Size, opts.Benefit) {
			rc.admitVetoes.Add(1)
			sp.SetNum("veto", 1)
			return getResult{blob: blob}
		}
		rc.env.Go(func() {
			// Off-critical-path admission: a control-plane root span
			// (the issuing invocation may already have completed).
			asp := rc.tracer.Begin(0, 0, "cache.admit", caller)
			_, werr := rc.be.Write(caller, key, blob, map[string]string{"kind": "input", "dirty": "0"}, caller)
			if werr == nil {
				rc.admissions.Add(1)
			} else {
				asp.SetNum("err", 1)
			}
			rc.tracer.End(&asp)
		})
	}
	return getResult{blob: blob}
}

// Put implements faas.Storage (§6.2, §6.3):
//   - uncacheable objects go straight to the RSDS;
//   - pipeline intermediates live only in the cache (never persisted);
//   - final outputs get a synchronous shadow placeholder in the RSDS,
//     land in the cache, and a Persistor function is injected to push
//     the payload asynchronously (write-back).
//
// With the chunking middleware enabled the backend's logical ceiling
// is effectively unbounded, so oversized cacheable objects take the
// ordinary cache paths and stripe transparently below. With a durable
// engine every write is a synchronous write-through.
func (rc *RCLib) Put(caller simnet.NodeID, key string, blob faas.Blob, opts faas.PutOpts) error {
	if rc.tracer == nil {
		return rc.put(caller, key, blob, opts, nil)
	}
	sp := rc.tracer.Begin(opts.Trace.Trace, opts.Trace.Span, "cache.put", caller)
	err := rc.put(caller, key, blob, opts, &sp)
	if err != nil {
		sp.SetNum("err", 1)
	}
	rc.tracer.End(&sp)
	return err
}

// put is Put's body; sp (nil when tracing is off) records which of the
// §6.2/§6.3 write paths the object took.
func (rc *RCLib) put(caller simnet.NodeID, key string, blob faas.Blob, opts faas.PutOpts, sp *trace.Span) error {
	if opts.Kind != faas.KindInput {
		rc.ephemeral.Add(blob.Size)
	}
	if rc.durable {
		// Durable engine: the ack IS persistence. No shadow, no
		// persistor, no dirty state.
		sp.SetStr("path", "durable")
		_, err := rc.be.Write(caller, key, blob, nil, caller)
		rc.bypassWrites.Add(1)
		return err
	}
	maxObj := rc.be.MaxObjectSize()
	// Brownout: non-intermediate writes take the synchronous durable
	// RSDS path — per-request CacheOff. Durable on ack, no shadow, no
	// persistor, no cache capacity consumed. Intermediates stay on the
	// cache path: they are never persisted and pushing them to the
	// RSDS would cost more than it frees.
	if opts.Kind != faas.KindIntermediate && rc.inBrownout() {
		sp.SetStr("path", "brownout")
		rc.rsds.Put(caller, key, blob, nil, false)
		rc.bypassWrites.Add(1)
		rc.brownoutBypasses.Add(1)
		return nil
	}
	// Pipeline intermediates are cached regardless of the benefit
	// verdict (§6.3 presumes they live in the cache and are discarded
	// when the pipeline ends); everything else respects the Predictor.
	if opts.Kind != faas.KindIntermediate &&
		(!opts.ShouldCache || blob.Size > maxObj) {
		sp.SetStr("path", "bypass")
		rc.rsds.Put(caller, key, blob, nil, false)
		rc.bypassWrites.Add(1)
		return nil
	}
	if opts.Kind == faas.KindIntermediate {
		sp.SetStr("path", "intermediate")
		if blob.Size > maxObj {
			sp.SetNum("bypass", 1)
			rc.rsds.Put(caller, key, blob, nil, false)
			rc.bypassWrites.Add(1)
			return nil
		}
		_, err := rc.be.Write(caller, key, blob, map[string]string{
			"kind": "intermediate", "pipeline": opts.Pipeline, "dirty": "0",
		}, caller)
		if err != nil {
			// Cache full or unreachable: fall back to the RSDS
			// (transparently slower).
			rc.countWriteFallback(err)
			sp.SetNum("fallback", 1)
			rc.rsds.Put(caller, key, blob, nil, false)
			return nil
		}
		if opts.Pipeline != "" {
			rc.mu.Lock()
			rc.pipelines[opts.Pipeline] = append(rc.pipelines[opts.Pipeline], key)
			rc.mu.Unlock()
		}
		return nil
	}
	if rc.isRelaxed(key) {
		// §6.2 relaxed mode: cache-resident, lazily written back. The
		// version tag 0 makes WriteBackNow use a plain Put.
		sp.SetStr("path", "relaxed")
		_, err := rc.be.Write(caller, key, blob, map[string]string{
			"kind": "final", "dirty": "1", "version": "0",
		}, caller)
		if err != nil {
			rc.countWriteFallback(err)
			sp.SetNum("fallback", 1)
			rc.rsds.Put(caller, key, blob, nil, false)
		}
		return nil
	}
	// Final output: shadow + cache + async persist.
	sp.SetStr("path", "writeback")
	version := rc.rsds.PutShadow(caller, key, blob.Size)
	_, err := rc.be.Write(caller, key, blob, map[string]string{
		"kind": "final", "dirty": "1", "version": strconv.FormatUint(version, 10),
	}, caller)
	if err != nil {
		// No cache room or cache unreachable: persist synchronously
		// (the vanilla write-through path). The shadow version keeps
		// ordering with any concurrent persistors.
		rc.countWriteFallback(err)
		sp.SetNum("fallback", 1)
		return rc.rsds.PersistPayload(caller, key, blob, version)
	}
	rc.schedulePersist(caller, key, version)
	return nil
}

// countWriteFallback records a cache-write fallback to the RSDS when
// the cause was unavailability (capacity misses are the ordinary
// bypass path, not degradation).
func (rc *RCLib) countWriteFallback(err error) {
	if store.IsUnavailable(err) {
		rc.fallbackWrites.Add(1)
	}
}

// schedulePersist injects a Persistor invocation for (key, version).
func (rc *RCLib) schedulePersist(node simnet.NodeID, key string, version uint64) {
	rc.ensurePending(key)
	rc.env.Go(func() {
		r := rc.platform.Invoke(&faas.Request{
			Function:  rc.persistFn,
			InputKeys: []string{key},
			Args:      map[string]float64{"version": float64(version)},
		})
		if r != nil && r.Err != nil {
			// The Persistor invocation itself failed (e.g. it was routed
			// to the dying master for locality). The acked payload still
			// lives in backup replicas — retry until persistBody gets to
			// run and decide.
			rc.env.After(rc.persistRetryDelay, func() {
				rc.schedulePersist(node, key, version)
			})
		}
	})
}

// Delete implements faas.Storage.
func (rc *RCLib) Delete(caller simnet.NodeID, key string) error {
	rc.be.Evict(key)
	return rc.rsds.Delete(caller, key, false)
}

// isEphemeralKey reports whether key is a pipeline intermediate, by the
// conventional prefix pipelines write under — it sits on every Get, so
// it does not take rc.mu to consult the pipelines map.
func (rc *RCLib) isEphemeralKey(key string) bool {
	return strings.HasPrefix(key, "pl/")
}

// PipelineDone implements faas.PipelineAware: intermediate objects of
// the pipeline are removed from the cache (not persisted) once the
// pipeline completes (§6.3). Evicting a striped object drops every
// stripe inside the chunking middleware.
func (rc *RCLib) PipelineDone(pipeline string) {
	rc.mu.Lock()
	keys := rc.pipelines[pipeline]
	delete(rc.pipelines, pipeline)
	rc.mu.Unlock()
	for _, key := range keys {
		rc.be.Evict(key)
	}
}

// WriteBackNow synchronously persists one dirty cached object (used by
// the CacheAgent when reclaiming space). Returns false when the object
// is not dirty or vanished.
func (rc *RCLib) WriteBackNow(node simnet.NodeID, key string) bool {
	sp := rc.tracer.Begin(0, 0, "cache.writeback", node)
	ok := rc.writeBackNow(node, key)
	if ok {
		sp.SetNum("ok", 1)
	} else {
		sp.SetNum("ok", 0)
	}
	rc.tracer.End(&sp)
	return ok
}

// writeBackNow is WriteBackNow's body (the wrapper owns the span).
func (rc *RCLib) writeBackNow(node simnet.NodeID, key string) bool {
	blob, meta, err := rc.be.Read(node, key)
	if err != nil || meta.Tags["dirty"] != "1" {
		return false
	}
	version, _ := strconv.ParseUint(meta.Tags["version"], 10, 64)
	if version == 0 {
		// Relaxed-mode object: no shadow was created; plain put.
		rc.rsds.Put(node, key, blob, nil, false)
	} else if perr := rc.rsds.PersistPayload(node, key, blob, version); perr != nil {
		if errors.Is(perr, objstore.ErrStale) {
			// An equal or newer version is already persisted; the
			// cached copy is effectively clean and must not overwrite
			// the store.
			rc.be.SetTag(node, key, "dirty", "0")
			rc.resolvePending(key)
		}
		return false
	}
	rc.writeBacks.Add(1)
	rc.resolvePending(key)
	return true
}

// EstimateRSDS returns the modeled uncached Extract/Load cost of ops
// accesses moving size bytes in total, for caching-benefit labels when
// the real access was served from the cache.
func (rc *RCLib) EstimateRSDS(ops, size int64, write bool) time.Duration {
	if ops < 1 {
		ops = 1
	}
	p := rc.rsds.Profile()
	if write {
		return time.Duration(ops)*p.WriteBase + time.Duration(float64(size)/p.WriteBW*float64(time.Second))
	}
	return time.Duration(ops)*p.ReadBase + time.Duration(float64(size)/p.ReadBW*float64(time.Second))
}

// CacheStats reports proxy counters.
type CacheStats struct {
	Hits, LocalHits, Misses int64
	EphemHits, EphemMisses  int64
	Admissions, WriteBacks  int64
	// AdmitVetoes counts miss-admissions the control plane's eviction
	// policy refused (always zero under the paper's policy).
	AdmitVetoes  int64
	BypassWrites int64
	// MissCoalesced counts misses served by another caller's in-flight
	// fetch (zero unless Options.CoalesceMisses).
	MissCoalesced  int64
	EphemeralBytes int64
	// Degradation counters: RSDS fallbacks taken because the cache
	// was unavailable, cache-op retries/timeouts, and circuit-breaker
	// trips.
	FallbackReads  int64
	FallbackWrites int64
	CacheRetries   int64
	CacheTimeouts  int64
	BreakerTrips   int64
	// Overload-control counters: storage retries the budget refused,
	// admissions skipped and writes diverted while in brownout.
	RetryDenied      int64
	BrownoutSkips    int64
	BrownoutBypasses int64
}

// Stats returns a snapshot of the proxy counters. Each counter is a
// single atomic load; in the simulator's serialized event loop (and at
// any quiescent point in real time) the loads are mutually coherent —
// there is no cross-counter invariant a torn read could violate, since
// every increment site bumps at most one ratio-relevant counter per
// event.
func (rc *RCLib) Stats() CacheStats {
	var rs store.ResilienceStats
	if rc.resil != nil {
		rs = rc.resil.Stats()
	}
	return CacheStats{
		Hits: rc.hits.Load(), LocalHits: rc.localHits.Load(), Misses: rc.misses.Load(),
		EphemHits: rc.ephemHits.Load(), EphemMisses: rc.ephemMisses.Load(),
		Admissions: rc.admissions.Load(), WriteBacks: rc.writeBacks.Load(),
		AdmitVetoes:   rc.admitVetoes.Load(),
		BypassWrites:  rc.bypassWrites.Load(),
		MissCoalesced: rc.missCoalesced.Load(), EphemeralBytes: rc.ephemeral.Load(),
		FallbackReads: rc.fallbackReads.Load(), FallbackWrites: rc.fallbackWrites.Load(),
		CacheRetries: rs.Retries, CacheTimeouts: rs.Timeouts,
		BreakerTrips: rs.BreakerTrips, RetryDenied: rs.BudgetDenied,
		BrownoutSkips: rc.brownoutSkips.Load(), BrownoutBypasses: rc.brownoutBypasses.Load(),
	}
}

// InputHitRatio is the hit ratio over non-pipeline-intermediate
// accesses — the quantity that collapses in the 24-tenant run.
func (rc *RCLib) InputHitRatio() float64 {
	hits := rc.hits.Load() - rc.ephemHits.Load()
	total := hits + rc.misses.Load() - rc.ephemMisses.Load()
	if total <= 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (rc *RCLib) HitRatio() float64 {
	hits := rc.hits.Load()
	total := hits + rc.misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
