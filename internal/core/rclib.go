package core

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
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
// The proxy's data plane programs against store.Backend. At
// construction it assembles its middleware stack over the cache
// cluster it was given:
//
//	Instrumented → Chunked (Options.Chunking only) → Resilient → cluster
//
// In cache-off mode (Options.CacheOff) the stack is Instrumented over
// the RSDS passthrough, and the proxy skips the whole shadow/persistor
// protocol: its writes are durable on ack and its reads are not cache
// hits.
type RCLib struct {
	env  *sim.Env
	rsds *objstore.Store

	// base is the raw storage engine; be is the top of the middleware
	// stack every data-plane op goes through.
	base    store.Backend
	be      store.Backend
	resil   *store.Resilient // nil in cache-off mode
	inst    *store.Instrumented
	pv      store.PlacementView // nil in cache-off mode
	durable bool                // Options.CacheOff

	// The Persistor is itself a FaaS function injected into the
	// platform.
	platform  *faas.Platform
	persistFn *faas.Function

	// gov is the memory control plane's write-admission veto: missed
	// inputs are only admitted into the cache when the owning node's
	// eviction policy agrees, and cache hits are reported back so
	// frequency-keeping policies see accesses.
	gov *Governor
	// relaxed holds key prefixes (the paper's bucket/object/account
	// granularity, Options.RelaxedPrefixes) whose tenants disabled the
	// §6.2 strong-consistency facilities: cacheable writes under them
	// skip the synchronous shadow placeholder and the eager Persistor;
	// dirty data reaches the RSDS only when the cacheAgent evicts it,
	// persistence meanwhile riding on the cache's replication.
	relaxed []string

	// pipelines tracks each pipeline instance's intermediates
	// (control-plane state: only touched at intermediate Put and
	// pipeline completion).
	pipelines map[string]*pipelineState

	// pending maps keys to futures resolved when their latest payload
	// has been persisted (external-read webhook barrier).
	pending map[string]*sim.Future[struct{}]

	// brownout is the overload controller's degradation switch: miss
	// admissions stop and non-intermediate writes take the synchronous
	// durable RSDS path (per-request Passthrough/CacheOff), so the
	// cache keeps only its existing hot set and the write path stops
	// depending on cache capacity.
	brownout bool

	// tracer records cache.get/cache.put/rsds.fetch spans (nil = off;
	// set by System.EnableTracing before traffic starts).
	tracer *trace.Tracer

	// persistRetryDelay is how long a failed write-back waits before
	// the next persistor attempt.
	persistRetryDelay time.Duration

	// stats holds the data-plane counters; the retry, timeout and
	// breaker counters live in the Resilient middleware, and Stats
	// copies them in.
	stats CacheStats
}

// NewRCLib builds the proxy over the cache cluster and the RSDS and
// registers its Persistor with the platform. kv is unused, and may be
// nil, when opts.CacheOff puts the proxy over the RSDS passthrough
// instead. gov hears each admission, res tunes the Resilient layer, and
// opts supplies Chunking and RelaxedPrefixes.
func NewRCLib(env *sim.Env, kv *kvstore.Cluster, rsds *objstore.Store, platform *faas.Platform,
	gov *Governor, res store.ResilienceConfig, opts Options) *RCLib {
	rc := &RCLib{
		env:               env,
		rsds:              rsds,
		durable:           opts.CacheOff,
		platform:          platform,
		gov:               gov,
		relaxed:           slices.Clone(opts.RelaxedPrefixes),
		pipelines:         make(map[string]*pipelineState),
		pending:           make(map[string]*sim.Future[struct{}]),
		persistRetryDelay: res.PersistRetryDelay,
	}

	// Assemble the middleware stack bottom-up. Chunked stripes around
	// the cluster's per-object ceiling, so it has no place over the
	// passthrough, which has none.
	var b store.Backend
	if rc.durable {
		rc.base = store.NewPassthrough(rsds)
		b = rc.base
	} else {
		rc.base, rc.pv = kv, kv
		rc.resil = store.NewResilient(env, kv, res)
		b = rc.resil
		if opts.Chunking {
			b = store.NewChunked(rc.resil, store.DefaultChunkSize)
		}
	}
	rc.inst = store.NewInstrumented(env, b)
	rc.be = rc.inst

	rc.persistFn = &faas.Function{
		Name:         "persistor",
		Tenant:       "ofc",
		MemoryBooked: 64 << 20,
		InputType:    "none",
		Body:         rc.persistBody,
	}
	platform.Register(rc.persistFn)

	// Consistency webhooks for non-FaaS clients (§6.2).
	rsds.OnRead(func(key string, m objstore.Meta) {
		if !m.IsShadow() {
			return
		}
		if f := rc.pending[key]; f != nil {
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

// SetBrownout switches the proxy's degradation mode (see the brownout
// field).
func (rc *RCLib) SetBrownout(on bool) { rc.brownout = on }

// StoreLatencyP99 reports the p99 of recent backend op latencies (the
// degradation controller's store-health signal).
func (rc *RCLib) StoreLatencyP99() time.Duration {
	return rc.inst.LatencyQuantile(0.99)
}

// isRelaxed reports whether key falls under a relaxed prefix.
func (rc *RCLib) isRelaxed(key string) bool {
	for _, prefix := range rc.relaxed {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

// persistBody is the Persistor function (§6.2): read the payload from
// the cache, push it to the RSDS for the recorded version, then apply
// the §6.3 discard policy for final outputs. Striped objects
// reassemble transparently inside the chunking middleware.
func (rc *RCLib) persistBody(ctx *faas.Ctx) error {
	ref := ctx.Trace()
	sp := rc.tracer.Begin(ref.Trace, ref.Span, "persist", ctx.Node())
	defer rc.tracer.End(&sp)
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
		rc.stats.WriteBacks++
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

// ensurePending installs a pending future for key if none exists.
func (rc *RCLib) ensurePending(key string) {
	if _, ok := rc.pending[key]; !ok {
		rc.pending[key] = sim.NewFuture[struct{}](rc.env)
	}
}

func (rc *RCLib) resolvePending(key string) {
	f := rc.pending[key]
	delete(rc.pending, key)
	if f != nil && !f.Done() {
		f.Set(struct{}{})
	}
}

// noteGetHit is the Get-hit bookkeeping: counter increments and
// locality attribution, a placement lookup that allocates nothing (the
// critical path pays it on every warm read).
func (rc *RCLib) noteGetHit(caller simnet.NodeID, key string, intermediate bool) {
	rc.stats.Hits++
	if intermediate {
		rc.stats.EphemHits++
	}
	if rc.pv == nil {
		return
	}
	if master, ok := rc.pv.MasterOf(key); ok && master == caller {
		rc.stats.LocalHits++
	}
}

// noteGetMiss is the Get-miss counter bookkeeping.
func (rc *RCLib) noteGetMiss(key string, unavailable bool) {
	rc.stats.Misses++
	if unavailable {
		rc.stats.FallbackReads++
	}
	if rc.isEphemeralKey(key) {
		rc.stats.EphemMisses++
	}
}

// Get implements faas.Storage: cache first, RSDS on miss, with
// admission of cache-worthy inputs. With a durable engine every read
// is an RSDS read and counts as a miss — cache-off mode reports an
// honest zero hit ratio.
func (rc *RCLib) Get(caller simnet.NodeID, key string, opts faas.PutOpts) (blob faas.Blob, err error) {
	sp := rc.tracer.Begin(opts.Trace.Trace, opts.Trace.Span, "cache.get", caller)
	defer func() {
		if err != nil {
			sp.SetNum("err", 1)
		}
		rc.tracer.End(&sp)
	}()
	if rc.durable {
		blob, _, err = rc.be.Read(caller, key)
		rc.noteGetMiss(key, false)
		sp.SetStr("path", "durable")
		return blob, err
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
	return rc.fetchMiss(caller, key, opts, unavailable, &sp)
}

// fetchMiss fetches key from the RSDS (waiting out a shadow
// placeholder if one is pending) and admits cache-worthy inputs off
// the critical path. Concurrent misses of one key each pay their own
// fetch.
func (rc *RCLib) fetchMiss(caller simnet.NodeID, key string, opts faas.PutOpts, unavailable bool, sp *trace.Span) (faas.Blob, error) {
	ref := sp.Ref()
	fsp := rc.tracer.Begin(ref.Trace, ref.Span, "rsds.fetch", caller)
	blob, m, rerr := rc.rsds.Get(caller, key, false)
	if rerr == nil && m.IsShadow() {
		// The authoritative payload is a not-yet-persisted cache write
		// (we got here because the cache is unreachable). Wait for the
		// pending write-back — the Persistor retries until the cache
		// recovers — then re-read the now-persisted payload.
		if f := rc.pending[key]; f != nil {
			fsp.SetNum("shadowWait", 1)
			f.Wait()
			blob, _, rerr = rc.rsds.Get(caller, key, false)
		}
	}
	if rerr != nil {
		fsp.SetNum("err", 1)
		rc.tracer.End(&fsp)
		return faas.Blob{}, rerr
	}
	rc.tracer.End(&fsp)
	if opts.ShouldCache && rc.brownout {
		// Brownout: no new admissions — the cache serves (and keeps)
		// only what it already holds.
		rc.stats.BrownoutSkips++
		sp.SetNum("brownoutSkip", 1)
		return blob, nil
	}
	if opts.ShouldCache && !unavailable && blob.Size <= rc.base.MaxObjectSize() {
		// Admit off the critical path; a failed admission (no space)
		// is only a lost opportunity. Skipped while the cache is
		// unavailable — the breaker decides when to come back. The
		// admission ceiling is the engine's raw per-object limit:
		// missed inputs are not striped. The control plane's eviction
		// policy hears of the admission (GDSF keeps the benefit score).
		rc.gov.Admitted(caller, key, opts.Benefit)
		rc.env.Go(func() {
			// Off-critical-path admission: a control-plane root span
			// (the issuing invocation may already have completed).
			asp := rc.tracer.Begin(0, 0, "cache.admit", caller)
			_, werr := rc.be.Write(caller, key, blob, admittedTags, caller)
			if werr == nil {
				rc.stats.Admissions++
			} else {
				asp.SetNum("err", 1)
			}
			rc.tracer.End(&asp)
		})
	}
	return blob, nil
}

// Put implements faas.Storage (§6.2, §6.3):
//   - uncacheable objects go straight to the RSDS;
//   - pipeline intermediates live only in the cache (never persisted);
//   - final outputs get a synchronous shadow placeholder in the RSDS,
//     land in the cache, and a Persistor function is injected to push
//     the payload asynchronously (write-back).
//
// With the chunking middleware in the stack the backend's logical
// ceiling is effectively unbounded, so oversized cacheable objects take
// the ordinary cache paths and stripe transparently below. With a durable
// engine every write is a synchronous write-through.
func (rc *RCLib) Put(caller simnet.NodeID, key string, blob faas.Blob, opts faas.PutOpts) (err error) {
	sp := rc.tracer.Begin(opts.Trace.Trace, opts.Trace.Span, "cache.put", caller)
	defer func() {
		if err != nil {
			sp.SetNum("err", 1)
		}
		rc.tracer.End(&sp)
	}()
	if opts.Kind != faas.KindInput {
		rc.stats.EphemeralBytes += blob.Size
	}
	if rc.durable {
		// Durable engine: the ack IS persistence. No shadow, no
		// persistor, no dirty state.
		sp.SetStr("path", "durable")
		_, err = rc.be.Write(caller, key, blob, nil, caller)
		rc.stats.BypassWrites++
		return err
	}
	maxObj := rc.be.MaxObjectSize()
	// Brownout: non-intermediate writes take the synchronous durable
	// RSDS path — per-request CacheOff. Durable on ack, no shadow, no
	// persistor, no cache capacity consumed. Intermediates stay on the
	// cache path: they are never persisted and pushing them to the
	// RSDS would cost more than it frees.
	if opts.Kind != faas.KindIntermediate && rc.brownout {
		sp.SetStr("path", "brownout")
		rc.bypass(caller, key, blob)
		rc.stats.BrownoutBypasses++
		return nil
	}
	// Pipeline intermediates are cached regardless of the benefit
	// verdict (§6.3 presumes they live in the cache and are discarded
	// when the pipeline ends); everything else respects the Predictor.
	if opts.Kind != faas.KindIntermediate &&
		(!opts.ShouldCache || blob.Size > maxObj) {
		sp.SetStr("path", "bypass")
		return rc.bypass(caller, key, blob)
	}
	if opts.Kind == faas.KindIntermediate {
		sp.SetStr("path", "intermediate")
		if blob.Size > maxObj {
			sp.SetNum("bypass", 1)
			return rc.bypass(caller, key, blob)
		}
		_, err = rc.be.Write(caller, key, blob, rc.intermediateTags(opts.Pipeline), caller)
		if err != nil {
			// Cache full or unreachable: fall back to the RSDS
			// (transparently slower).
			rc.countWriteFallback(err)
			sp.SetNum("fallback", 1)
			rc.rsds.Put(caller, key, blob, nil, false)
			return nil
		}
		if opts.Pipeline != "" {
			pl := rc.pipelineOf(opts.Pipeline)
			pl.keys = append(pl.keys, key)
		}
		return nil
	}
	if rc.isRelaxed(key) {
		// §6.2 relaxed mode: cache-resident, lazily written back. The
		// version tag 0 makes WriteBackNow use a plain Put.
		sp.SetStr("path", "relaxed")
		_, err = rc.be.Write(caller, key, blob, relaxedTags, caller)
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
	_, err = rc.be.Write(caller, key, blob, map[string]string{
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

// bypass is the tail of every write the cache does not take: a
// synchronous RSDS write, durable on ack, which Put reports as nil.
func (rc *RCLib) bypass(caller simnet.NodeID, key string, blob faas.Blob) error {
	rc.rsds.Put(caller, key, blob, nil, false)
	rc.stats.BypassWrites++
	return nil
}

// countWriteFallback records a cache-write fallback to the RSDS when
// the cause was unavailability (capacity misses are the ordinary
// bypass path, not degradation).
func (rc *RCLib) countWriteFallback(err error) {
	if store.IsUnavailable(err) {
		rc.stats.FallbackWrites++
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

// isEphemeralKey reports whether key is a pipeline intermediate, by the
// conventional prefix pipelines write under: a prefix test, cheap
// enough for every Get.
func (rc *RCLib) isEphemeralKey(key string) bool {
	return strings.HasPrefix(key, "pl/")
}

// The tag maps the proxy writes with. A tag map is immutable once
// written (kvstore.Meta), so every write of one kind shares one map:
// admissions and relaxed finals these two, each pipeline's
// intermediates its pipelineState's. Only a write-back final, whose
// version tag is its own, gets a fresh map.
var (
	admittedTags = map[string]string{"kind": "input", "dirty": "0"}
	relaxedTags  = map[string]string{"kind": "final", "dirty": "1", "version": "0"}
)

// pipelineState is one pipeline instance's intermediates: the keys to
// drop when it completes, and the tag map they are all written with.
type pipelineState struct {
	tags map[string]string
	keys []string
}

// pipelineOf returns pipeline's state, made on first use.
func (rc *RCLib) pipelineOf(pipeline string) *pipelineState {
	pl := rc.pipelines[pipeline]
	if pl == nil {
		pl = &pipelineState{tags: map[string]string{"kind": "intermediate", "pipeline": pipeline, "dirty": "0"}}
		rc.pipelines[pipeline] = pl
	}
	return pl
}

// intermediateTags is the tag map of pipeline's intermediates.
func (rc *RCLib) intermediateTags(pipeline string) map[string]string {
	return rc.pipelineOf(pipeline).tags
}

// PipelineDone implements faas.PipelineAware: intermediate objects of
// the pipeline are removed from the cache (not persisted) once the
// pipeline completes (§6.3). Evicting a striped object drops every
// stripe inside the chunking middleware.
func (rc *RCLib) PipelineDone(pipeline string) {
	var keys []string
	if pl := rc.pipelines[pipeline]; pl != nil {
		keys = pl.keys
	}
	delete(rc.pipelines, pipeline)
	for _, key := range keys {
		rc.be.Evict(key)
	}
}

// WriteBackNow synchronously persists one dirty cached object (used by
// the CacheAgent when reclaiming space). Returns false when the object
// is not dirty or vanished.
func (rc *RCLib) WriteBackNow(node simnet.NodeID, key string) (ok bool) {
	sp := rc.tracer.Begin(0, 0, "cache.writeback", node)
	defer func() {
		if ok {
			sp.SetNum("ok", 1)
		} else {
			sp.SetNum("ok", 0)
		}
		rc.tracer.End(&sp)
	}()
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
	rc.stats.WriteBacks++
	rc.resolvePending(key)
	return true
}

// CacheStats reports proxy counters.
type CacheStats struct {
	Hits, LocalHits, Misses int64
	EphemHits, EphemMisses  int64
	Admissions, WriteBacks  int64
	// AdmitVetoes counts nothing: no eviction policy refuses an
	// admission. It stays because benchmark/layers.go reads it; a
	// benchmark change may drop it.
	AdmitVetoes  int64
	BypassWrites int64
	// MissCoalesced counts nothing: every miss pays its own RSDS
	// fetch. It stays because benchmark/layers.go reads it; a benchmark
	// change may drop it.
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

// Stats returns a snapshot of the proxy counters.
func (rc *RCLib) Stats() CacheStats {
	s := rc.stats
	if rc.resil != nil {
		rs := rc.resil.Stats()
		s.CacheRetries, s.CacheTimeouts = rs.Retries, rs.Timeouts
		s.BreakerTrips, s.RetryDenied = rs.BreakerTrips, rs.BudgetDenied
	}
	return s
}

// InputHitRatio is the hit ratio over non-pipeline-intermediate
// accesses — the quantity that collapses in the 24-tenant run.
func (rc *RCLib) InputHitRatio() float64 {
	hits := rc.stats.Hits - rc.stats.EphemHits
	total := hits + rc.stats.Misses - rc.stats.EphemMisses
	if total <= 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (rc *RCLib) HitRatio() float64 {
	hits := rc.stats.Hits
	total := hits + rc.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
