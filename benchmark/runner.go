package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"ofc/internal/core"
	"ofc/internal/sim"
	"ofc/internal/trace"
)

// Virtual-clock cadences of the runner itself.
const (
	// gaugeEvery paces the sampled gauges (and, in the traced pass, the
	// emptying of the program's span ring on the same tick, so tracing
	// adds no timer of its own to the event count).
	gaugeEvery = 10 * time.Second
	// timedSlices is how many pieces the window's host time is cut into
	// (see steadyHostS): each long enough to hold several GC cycles,
	// short enough that a burst of host interference spoils one piece.
	timedSlices = 20
	drainStep   = 5 * time.Second
	drainTries  = 60
)

// repMode selects what one repetition is for.
type repMode struct {
	// cacheOff runs the same schedule on the vanilla platform
	// (Options.CacheOff); only its latency sum is used.
	cacheOff bool
	// traced installs the benchmark's decorators and body spans, turns
	// the program's recorder on and profiles the timed interval.
	traced  bool
	profile io.Writer
}

// repResult is what one repetition measured.
type repResult struct {
	setupS float64
	hostS  float64 // warm-up boundary to end of drain
	// slices cuts hostS at fixed virtual instants (1/timedSlices of the
	// window each, then the drain): the same work in every repetition
	// of a run.
	slices []float64
	// inv counts function invocations of measured arrivals (pipeline
	// stages included, the platform's persistor helper excluded).
	inv       int64
	allocKB   float64
	attempted int
	failed    int // requests that returned an error
	lost      int // acknowledged outputs or external reads that failed verification
	latSumNs  int64
	lateMaxNs int64

	// virt holds the virtual-clock end-to-end metrics and layer the
	// per-layer counts: functions of the seed, up to the order the host
	// gives same-instant events (see runWorkload).
	virt  metricSet
	layer metricSet
	// hostLayer holds the per-layer values that depend on the host
	// clock or runtime and so differ between repetitions.
	hostLayer metricSet

	checks []string // failed checks, empty when all passed

	// traced pass only
	rec       *recorder
	progSpans int64
	progDrops int64
}

// tally accumulates what the replies to the arrivals say, under mu.
type tally struct {
	mu    sync.Mutex
	lat   []float64 // ms, measured requests
	queue []float64 // ms, QueueDelay of measured invocations
	// qFirst and qLast are sum (ns) and count of QueueDelay in the
	// first and last quarter of the window.
	qFirst, qLast [2]int64
	// phaseSum is Extract, Transform, Load and ScaleDownTime over
	// measured invocations.
	phaseSum [4]time.Duration
	// readOps and finals cover the whole run, warm-up included: every
	// read must be accounted for and every acknowledged output readable.
	readOps int64
	finals  []finalObj
	// missed marks single-read requests whose read went to the RSDS.
	missed []bool
}

// add records the reply to arrival i of the schedule; quarter is its
// quarter of the window, negative during warm-up.
func (t *tally) add(res *repResult, i int, o outcome, latency time.Duration, quarter int, readBase time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range o.results {
		t.readOps += r.ReadOps
	}
	t.finals = append(t.finals, o.finals...)
	if quarter < 0 {
		return
	}
	if o.background {
		// Not a request of the measured load: only a failed
		// verification counts.
		if o.err != nil {
			res.lost++
		}
		return
	}
	res.attempted++
	if o.err != nil {
		res.failed++
	}
	t.lat = append(t.lat, float64(latency)/1e6)
	res.latSumNs += int64(latency)
	res.inv += int64(len(o.results))
	for _, r := range o.results {
		t.queue = append(t.queue, float64(r.QueueDelay)/1e6)
		switch quarter {
		case 0:
			t.qFirst[0] += int64(r.QueueDelay)
			t.qFirst[1]++
		case 3:
			t.qLast[0] += int64(r.QueueDelay)
			t.qLast[1]++
		}
		t.phaseSum[0] += r.Extract
		t.phaseSum[1] += r.Transform
		t.phaseSum[2] += r.Load
		t.phaseSum[3] += r.ScaleDownTime
	}
	if len(o.results) == 1 && o.results[0].ReadOps == 1 {
		t.missed[i] = o.results[0].Extract >= readBase
	}
}

// runRep builds a fresh deployment, stages it, sends the schedule and
// measures the window after warm-up.
func runRep(w *workloadDef, pl *plan, seed int64, quick bool, mode repMode) *repResult {
	warmup, window := w.warmup, w.window
	if quick {
		warmup, window = w.quickWarmup, w.quickWindow
	}
	sched := pl.sched
	first := sort.Search(len(sched), func(i int) bool { return sched[i].Due >= warmup })
	res := &repResult{}
	var checkMu sync.Mutex
	fail := func(format string, args ...interface{}) {
		checkMu.Lock()
		res.checks = append(res.checks, fmt.Sprintf(format, args...))
		checkMu.Unlock()
	}

	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	t0 := time.Now()
	sys := newSystem(w, seed, mode.cacheOff)
	env := sys.Env
	var rec *recorder
	var tracer *trace.Tracer
	if mode.traced {
		rec = newRecorder(env, first)
		rec.install(sys.Platform)
		// Sized so the spans of one gauge interval fit: the program's
		// recorder drops when a shard fills.
		perTick := float64(len(sched)) / float64(warmup+window) * float64(gaugeEvery)
		tracer = sys.EnableTracing(trace.Config{Shards: 8, ShardCap: 4096 + int(perTick*float64(w.spansPerInv))})
	}
	drv := pl.deploy(sys, rec)
	fns := drv.fns

	var (
		t         = tally{missed: make([]bool, len(sched))}
		begin     snapshot
		end       snapshot
		g         gauges
		measuring bool
		sliceAt   time.Time
		ticks     int
		storeP99  time.Duration
	)
	readBase := sys.RSDS.Profile().ReadBase
	ticksPerSlice := max(1, int(window/timedSlices/gaugeEvery))

	sys.Start()
	env.Go(func() {
		drv.stage()
		res.setupS = time.Since(t0).Seconds()
		origin := env.Now()

		env.After(warmup, func() {
			if mode.traced {
				rec.on.Store(true)
				tracer.Reset()
				if mode.profile != nil {
					if err := pprof.StartCPUProfile(mode.profile); err != nil {
						fail("cpu profile: %v", err)
					}
				}
			}
			measuring = true
			g.sample(sys)
			begin = snap(sys, fns)
			sliceAt = begin.host
		})
		env.Every(gaugeEvery, func() bool {
			on := measuring
			if on {
				g.sample(sys)
				if ticks++; ticks%ticksPerSlice == 0 {
					now := time.Now()
					res.slices = append(res.slices, now.Sub(sliceAt).Seconds())
					sliceAt = now
				}
			}
			if on && mode.traced {
				res.progSpans += int64(tracer.Len())
				res.progDrops += tracer.Drops()
				tracer.Reset()
			}
			return true
		})

		// The generator: each arrival fires from its own After callback
		// at its due time and first schedules its successor, so a slow
		// reply never delays a later send.
		wg := sim.NewWaitGroup(env)
		wg.Add(len(sched))
		var fire func(i int)
		fire = func(i int) {
			a := &sched[i]
			due := origin + a.Due
			if late := int64(env.Now() - due); late > res.lateMaxNs {
				res.lateMaxNs = late
			}
			if i+1 < len(sched) {
				env.After(origin+sched[i+1].Due-env.Now(), func() { fire(i + 1) })
			}
			o := drv.issue(a, i)
			quarter := -1
			if i >= first {
				quarter = int((a.Due - warmup) * 4 / window)
			}
			t.add(res, i, o, env.Now()-due, quarter, readBase)
			if o.background && o.err != nil {
				fail("arrival %d: %v", i, o.err)
			}
			wg.Done()
		}
		if len(sched) > 0 {
			env.After(sched[0].Due, func() { fire(0) })
		}

		env.Sleep(warmup + window)
		wg.Wait()
		// Drain: let write-backs finish. A shadow object left in the
		// RSDS after the grace period is a lost output.
		for try := 0; try < drainTries && shadows(sys) > 0; try++ {
			env.Sleep(drainStep)
		}
		measuring = false
		storeP99 = sys.RC.StoreLatencyP99()
		end = snap(sys, fns)
		res.slices = append(res.slices, end.host.Sub(sliceAt).Seconds())
		if mode.traced {
			res.progSpans += int64(tracer.Len())
			res.progDrops += tracer.Drops()
			if mode.profile != nil {
				pprof.StopCPUProfile()
			}
		}

		// Output checks.
		if n := shadows(sys); n > 0 {
			res.lost += n
			fail("%d shadow objects left in the RSDS after drain", n)
		}
		for _, f := range t.finals {
			_, m, err := sys.RSDS.Get(sys.CtrlNode, f.key, true)
			switch {
			case err != nil:
				res.lost++
				fail("final %s: %v", f.key, err)
			case m.IsShadow() || (f.size >= 0 && m.Size != f.size):
				res.lost++
				fail("final %s: shadow=%v size=%d want %d", f.key, m.IsShadow(), m.Size, f.size)
			}
		}
		if !mode.cacheOff {
			if st := sys.RC.Stats(); st.Hits+st.Misses != t.readOps {
				fail("conservation: proxy hits+misses = %d, sum of Result.ReadOps = %d", st.Hits+st.Misses, t.readOps)
			}
		}
		env.Stop()
	})
	env.Run()

	if res.lateMaxNs != 0 {
		fail("load generator ran %d ns late", res.lateMaxNs)
	}
	if res.progDrops != 0 {
		fail("program tracer dropped %d spans", res.progDrops)
	}
	if err := goroutinesSettle(baseGoroutines); err != nil {
		fail("%v", err)
	}

	res.rec = rec
	res.hostS = end.host.Sub(begin.host).Seconds()
	res.allocKB = ratio(float64(end.totalAlloc-begin.totalAlloc)/1024, float64(res.inv))

	// Virtual end-to-end metrics.
	lat, queue, phaseSum := t.lat, t.queue, t.phaseSum
	sort.Float64s(lat)
	sort.Float64s(queue)
	slow := 0
	for _, ms := range lat {
		if ms > w.sloMs {
			slow++
		}
	}
	v := &res.virt
	v.set("virt_inv_p50_ms", quantile(lat, 0.50), "ms")
	v.set("virt_inv_p99_ms", quantile(lat, 0.99), "ms")
	// Every failed request missed the limit, whatever its latency.
	miss := float64(slow+res.failed+res.lost) / float64(max(res.attempted, 1))
	if miss > 1 {
		miss = 1
	}
	v.set("virt_slo_ok_frac", 1-miss, "fraction")
	hits, misses := end.rc.Hits-begin.rc.Hits, end.rc.Misses-begin.rc.Misses
	v.set("cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "fraction")
	v.set("virt_rsds_bytes_per_inv", ratio(float64(end.osRead-begin.osRead+end.osWritten-begin.osWritten), float64(res.inv)), "B/inv")

	// Per-layer counts.
	l := &res.layer
	layerCounts(l, begin, end, &g, res.inv, storeP99)
	var herdGets, dupGets int
	for i := first; i < len(sched); {
		j, m := i, 0
		for ; j < len(sched) && sameHerd(&sched[i], &sched[j]); j++ {
			if t.missed[j] {
				m++
			}
		}
		herdGets += m
		if m > 1 {
			dupGets += m - 1
		}
		i = j
	}
	l.set("rclib.dup_fetch_frac", ratio(float64(dupGets), float64(herdGets)), "fraction")
	l.set("faas.queue_virt_ms_p50", quantile(queue, 0.50), "ms")
	l.set("faas.queue_virt_ms_p99", quantile(queue, 0.99), "ms")
	n := float64(res.inv)
	l.set("faas.extract_virt_ms_mean", ratio(float64(phaseSum[0])/1e6, n), "ms")
	l.set("faas.transform_virt_ms_mean", ratio(float64(phaseSum[1])/1e6, n), "ms")
	l.set("faas.load_virt_ms_mean", ratio(float64(phaseSum[2])/1e6, n), "ms")
	l.set("faas.scaledown_virt_ms_mean", ratio(float64(phaseSum[3])/1e6, n), "ms")
	l.set("faas.backlog_growth", ratio(ratio(float64(t.qLast[0]), float64(t.qLast[1])), ratio(float64(t.qFirst[0]), float64(t.qFirst[1]))), "ratio")
	l.set("loadgen.late_virt_ms_max", float64(res.lateMaxNs)/1e6, "ms")
	l.set("loadgen.arrivals", float64(len(sched)-first), "count")
	l.set("loadgen.inv_attempted", float64(res.inv), "count")

	h := &res.hostLayer
	h.set("sim.events_per_host_s", ratio(float64(end.events-begin.events), res.hostS), "1/s")
	h.set("sim.virt_s_per_host_s", ratio((end.virt-begin.virt).Seconds(), res.hostS), "s/s")
	h.set("host.mallocs_per_inv", ratio(float64(end.mallocs-begin.mallocs), n), "1/inv")
	h.set("host.peak_heap_mb", float64(g.heapPeak)/float64(mb), "MB")
	h.set("host.gc_cpu_pct", 100*ratio(end.gcCPU-begin.gcCPU, end.totalCPU-begin.totalCPU), "%")
	h.set("host.goroutines_peak", float64(g.goroutinesPeak), "count")
	return res
}

// sameHerd reports whether two arrivals are the same request sent at
// the same instant (cold-miss's thundering herd).
func sameHerd(a, b *arrival) bool {
	if a.Due != b.Due || a.Tenant != b.Tenant || a.Kind != b.Kind || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
}

// shadows counts RSDS objects whose latest payload is still only in
// the cache.
func shadows(sys *core.System) int {
	n := 0
	for _, key := range sys.RSDS.List("") {
		if m, ok := sys.RSDS.MetaOf(key); ok && m.IsShadow() {
			n++
		}
	}
	return n
}

// goroutinesSettle waits for the repetition's simulation processes to
// exit: Env.Run returns as soon as the census is empty, a moment before
// the last goroutines unwind.
func goroutinesSettle(base int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines leaked past Env.Run", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
