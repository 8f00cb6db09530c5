package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/store"
)

// snapshot is one reading of every layer's public counters, plus the
// two clocks and the Go runtime's. Per-layer metrics are differences of
// two snapshots: the warm-up boundary and the end of drain.
type snapshot struct {
	host time.Time
	virt sim.Time

	// host
	totalAlloc, mallocs  uint64
	gcCPU, totalCPU      float64 // cumulative CPU-seconds
	events               int64
	netBytes, diskBytes  int64
	kv                   kvstore.ClusterStats
	ops                  store.OpStats
	osGets, osPuts       int64
	osShadows            int64
	osRead, osWritten    int64
	rc                   core.CacheStats
	agent                core.AgentMetrics
	memoHits, memoMisses int64
	goodPred, badPred    int64
	retrains             int64
	plat                 faas.Stats
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snap reads every layer. fns lists the registered functions, whose
// model generations sum to the retrain count. It runs inside an After
// callback or the drain process, when no other simulation process is
// runnable, so the counters are mutually coherent.
func snap(sys *core.System, fns []*faas.Function) snapshot {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.mallocs = ms.TotalAlloc, ms.Mallocs
	cpu := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(cpu)
	s.gcCPU, s.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()

	s.virt = sys.Env.Now()
	s.events = sys.Env.Events()
	for _, n := range sys.Net.Nodes() {
		sent, _, dr, dw := n.Stats()
		s.netBytes += sent
		s.diskBytes += dr + dw
	}
	if sys.KV != nil {
		s.kv = sys.KV.Stats()
	}
	s.ops = sys.RC.StoreStats()
	s.osGets, s.osPuts, s.osShadows, s.osRead, s.osWritten = sys.RSDS.Stats()
	s.rc = sys.RC.Stats()
	s.agent = sys.AggregateAgentMetrics()
	s.memoHits, s.memoMisses, _ = sys.Pred.MemoStats()
	s.goodPred, s.badPred = sys.PredictionCounts()
	for _, fn := range fns {
		s.retrains += int64(sys.Pred.Generation(fn))
	}
	s.plat = sys.Platform.Stats()
	// The host clock is read last so the snapshot's own cost falls
	// outside the timed interval at the boundary and inside it at the
	// end by the same amount.
	s.host = time.Now()
	return s
}

// gauges are the values sampled every gaugeEvery of virtual time inside the
// window (Figure 10's series and the runtime's peaks).
type gauges struct {
	n                   int
	grantSum, cachedSum int64
	usedPeak            int64
	heapPeak            uint64
	goroutinesPeak      int
	// overGrant counts samples where cached bytes exceeded the grant.
	overGrant int
}

func (g *gauges) sample(sys *core.System) {
	grant, cached := sys.CacheGrantBytes(), sys.CacheBytes()
	g.n++
	g.grantSum += grant
	g.cachedSum += cached
	if cached > g.usedPeak {
		g.usedPeak = cached
	}
	if cached > grant {
		g.overGrant++
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > g.heapPeak {
		g.heapPeak = ms.HeapAlloc
	}
	if n := runtime.NumGoroutine(); n > g.goroutinesPeak {
		g.goroutinesPeak = n
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered name -> metric list (insertion order is the
// print order; the JSON object is written from it by name).
type metricSet struct {
	names []string
	m     map[string]metric
}

func (ms *metricSet) set(name string, v float64, unit string) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

func (ms *metricSet) get(name string) float64 { return ms.m[name].Value }

// layerCounts derives the per-layer metrics of one repetition from its
// two snapshots. Every value here is computed from counts on the
// virtual side; the host-side rates are added by the caller.
func layerCounts(ms *metricSet, a, b snapshot, g *gauges, inv int64, storeP99 time.Duration) {
	n := float64(inv)
	per := func(name string, delta int64, unit string) { ms.set(name, ratio(float64(delta), n), unit) }
	count := func(name string, delta int64) { ms.set(name, float64(delta), "count") }

	per("sim.events_per_inv", b.events-a.events, "1/inv")

	per("simnet.net_bytes_per_inv", b.netBytes-a.netBytes, "B/inv")
	per("simnet.disk_bytes_per_inv", b.diskBytes-a.diskBytes, "B/inv")

	per("kvstore.coord_rpcs_per_inv", b.kv.CoordRPCs-a.kv.CoordRPCs, "1/inv")
	per("kvstore.server_rpcs_per_inv", b.kv.ServerRPCs-a.kv.ServerRPCs, "1/inv")
	count("kvstore.promotions", b.kv.Promotions-a.kv.Promotions)
	ms.set("kvstore.used_bytes_peak", float64(g.usedPeak), "B")

	reads, writes := b.ops.Reads-a.ops.Reads, b.ops.Writes-a.ops.Writes
	per("store.reads_per_inv", reads, "1/inv")
	per("store.writes_per_inv", writes, "1/inv")
	ms.set("store.batch_keys_per_read", ratio(float64(b.ops.BatchReadKeys-a.ops.BatchReadKeys), float64(b.ops.BatchReads-a.ops.BatchReads)), "keys")
	count("store.read_errs", b.ops.ReadErrs-a.ops.ReadErrs)
	count("store.write_errs", b.ops.WriteErrs-a.ops.WriteErrs)
	count("store.retries", b.rc.CacheRetries-a.rc.CacheRetries)
	ms.set("store.virt_p99_us", float64(storeP99)/1e3, "us")

	gets := b.osGets - a.osGets
	per("objstore.gets_per_inv", gets, "1/inv")
	per("objstore.puts_per_inv", b.osPuts-a.osPuts, "1/inv")
	per("objstore.shadows_per_inv", b.osShadows-a.osShadows, "1/inv")
	per("objstore.bytes_read_per_inv", b.osRead-a.osRead, "B/inv")
	per("objstore.bytes_written_per_inv", b.osWritten-a.osWritten, "B/inv")

	hits, local, misses := b.rc.Hits-a.rc.Hits, b.rc.LocalHits-a.rc.LocalHits, b.rc.Misses-a.rc.Misses
	lookups := float64(hits + misses)
	ms.set("rclib.local_hit_frac", ratio(float64(local), lookups), "fraction")
	ms.set("rclib.remote_hit_frac", ratio(float64(hits-local), lookups), "fraction")
	ms.set("rclib.miss_frac", ratio(float64(misses), lookups), "fraction")
	inHits := hits - (b.rc.EphemHits - a.rc.EphemHits)
	inMisses := misses - (b.rc.EphemMisses - a.rc.EphemMisses)
	ms.set("rclib.input_hit_ratio", ratio(float64(inHits), float64(inHits+inMisses)), "fraction")
	ms.set("rclib.admissions_per_miss", ratio(float64(b.rc.Admissions-a.rc.Admissions), float64(misses)), "1/miss")
	count("rclib.admit_vetoes", b.rc.AdmitVetoes-a.rc.AdmitVetoes)
	ms.set("rclib.miss_coalesced_frac", ratio(float64(b.rc.MissCoalesced-a.rc.MissCoalesced), float64(misses)), "fraction")
	// A put is any write the proxy accepted: the backend writes that
	// are not miss admissions, plus the writes that bypassed the cache.
	bypass := b.rc.BypassWrites - a.rc.BypassWrites
	puts := float64(writes - (b.rc.Admissions - a.rc.Admissions) + bypass)
	ms.set("rclib.writebacks_per_put", ratio(float64(b.rc.WriteBacks-a.rc.WriteBacks), puts), "1/put")
	ms.set("rclib.bypass_writes_per_put", ratio(float64(bypass), puts), "1/put")
	count("rclib.fallback_reads", b.rc.FallbackReads-a.rc.FallbackReads)
	ms.set("rclib.ephemeral_bytes", float64(b.rc.EphemeralBytes-a.rc.EphemeralBytes), "B")

	count("cacheagent.scale_ups", b.agent.ScaleUps-a.agent.ScaleUps)
	count("cacheagent.scale_downs_noevict", b.agent.ScaleDownNoEviction-a.agent.ScaleDownNoEviction)
	count("cacheagent.scale_downs_migrate", b.agent.ScaleDownMigration-a.agent.ScaleDownMigration)
	count("cacheagent.scale_downs_evict", b.agent.ScaleDownEviction-a.agent.ScaleDownEviction)
	ms.set("cacheagent.scale_down_virt_ms_total", float64(b.agent.ScaleDownTime-a.agent.ScaleDownTime)/1e6, "ms")
	count("cacheagent.periodic_evictions", b.agent.PeriodicEvictions-a.agent.PeriodicEvictions)
	count("cacheagent.reclaim_failures", b.agent.ReclaimFailures-a.agent.ReclaimFailures)
	ms.set("cacheagent.grant_bytes_mean", ratio(float64(g.grantSum), float64(g.n)), "B")
	ms.set("cacheagent.cache_bytes_mean", ratio(float64(g.cachedSum), float64(g.n)), "B")
	ms.set("cacheagent.fill_frac", ratio(float64(g.cachedSum), float64(g.grantSum)), "fraction")
	ms.set("cacheagent.over_grant_frac", ratio(float64(g.overGrant), float64(g.n)), "fraction")

	mh, mm := b.memoHits-a.memoHits, b.memoMisses-a.memoMisses
	ms.set("predictor.memo_hit_frac", ratio(float64(mh), float64(mh+mm)), "fraction")
	good, bad := b.goodPred-a.goodPred, b.badPred-a.badPred
	ms.set("predictor.good_frac", ratio(float64(good), float64(good+bad)), "fraction")
	count("predictor.retrains", b.retrains-a.retrains)

	cold, warm := b.plat.ColdStarts-a.plat.ColdStarts, b.plat.WarmStarts-a.plat.WarmStarts
	ms.set("faas.cold_start_frac", ratio(float64(cold), float64(cold+warm)), "fraction")
	count("faas.oom_kills", b.plat.OOMKills-a.plat.OOMKills)
	count("faas.retries", b.plat.Retries-a.plat.Retries)
	count("faas.rescues", b.plat.Rescues-a.plat.Rescues)
	count("faas.swaps", b.plat.Swaps-a.plat.Swaps)
	count("faas.reroutes", b.plat.Reroutes-a.plat.Reroutes)
	count("faas.shed", b.plat.Shed-a.plat.Shed)
}
