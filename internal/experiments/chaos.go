package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ofc/internal/chaos"
	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/metrics"
	"ofc/internal/workload"
)

// ChaosResult is the evidence the chaos drill collects: every
// invocation must complete, no acknowledged final output may be lost,
// and the degradation (hit-ratio dip, latency inflation, RSDS
// fallbacks) must be bounded and measured.
type ChaosResult struct {
	Invocations int
	Failures    int
	Reroutes    int64

	Kills, Restarts int

	// HealthyHits/Misses and FaultyHits/Misses are the proxy's Get hits
	// and misses during invocations that started outside and inside a
	// fault window; HealthyHit and FaultyHit are their ratios.
	// ProxyHits is the proxy's hit count over the whole drive loop.
	HealthyHits, HealthyMisses int64
	FaultyHits, FaultyMisses   int64
	ProxyHits                  int64
	HealthyHit, FaultyHit      float64
	HealthyP99, FaultyP99      time.Duration

	FallbackReads, FallbackWrites             int64
	CacheRetries, CacheTimeouts, BreakerTrips int64

	Recoveries   int64
	RecoveryTime time.Duration
	LastRecovery time.Duration

	Outputs     int
	LostOutputs int

	Applied []string
}

// Healthy reports whether the run degraded gracefully: no invocation
// failed, nothing acknowledged was lost, the fallback path actually
// carried traffic, and recovery ran.
func (r *ChaosResult) Healthy() bool {
	return r.Failures == 0 && r.LostOutputs == 0 &&
		r.FallbackReads+r.FallbackWrites > 0 && r.Recoveries > 0
}

// p99 returns metrics.Quantile(0.99) of a sorted copy of ds.
func p99(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return metrics.Quantile(s, 0.99)
}

// Chaos runs a Figure-7-style read/transform/write workload under a
// kill-one-cache-node-per-minute rotation and reports how OFC degrades:
// invocations reroute around the dead invoker, reads fall back to the
// RSDS while the breaker is open, RAMCloud-style recovery re-masters
// the victim's objects, and no acknowledged final output is lost.
// The run is driven sequentially so a (seed) pair replays identically.
func Chaos(seed int64, quick bool) (*Table, *ChaosResult) {
	cfg := DefaultDeploy()
	cfg.Seed = seed
	// A realistic multi-second detection window: between a kill and the
	// coordinator declaring the node dead, reads against lost masters
	// fail over to the RSDS (the degradation under measurement).
	cfg.Tune = func(o *core.Options) { o.KV.CrashDetectTimeout = 5 * time.Second }
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys

	const pace = 250 * time.Millisecond
	const downtime = 30 * time.Second
	period := time.Minute
	victims := d.Workers
	runFor := time.Duration(len(victims))*period + 30*time.Second
	if quick {
		victims = d.Workers[:2]
		runFor = time.Duration(len(victims))*period + 45*time.Second
	}
	sched := chaos.NewSchedule()
	sched.KillRotation(period, period, downtime, victims...)
	inj := sys.ApplyChaos(sched, seed)

	// downAt reports whether some victim is scheduled down at t (the
	// static fault windows classify invocations as healthy/faulty).
	downAt := func(t time.Duration) bool {
		for i := range victims {
			kill := period + time.Duration(i)*period
			if t >= kill && t < kill+downtime {
				return true
			}
		}
		return false
	}

	// The workload: read a staged input, transform, write one final
	// output per invocation under a driver-chosen key so the RSDS
	// ground truth can be checked object by object afterwards.
	var outKey string
	fn := &faas.Function{Name: "chaosfn", Tenant: "chaos", MemoryBooked: 256 << 20, InputType: "image",
		Body: func(ctx *faas.Ctx) error {
			if _, err := ctx.Extract(ctx.InputKeys()[0]); err != nil {
				return err
			}
			if err := ctx.Transform(3*time.Millisecond, 96<<20); err != nil {
				return err
			}
			return ctx.Load(outKey, faas.Blob{Size: 64 << 10}, faas.KindFinal)
		}}
	d.Register(fn)
	d.Platform.Advisor = alwaysCache{}

	rng := rand.New(rand.NewSource(seed))
	pool := workload.NewInputPool(rng, "image", "chaos/in", []int64{32 << 10, 64 << 10}, 3)

	res := &ChaosResult{}
	var outputs []string
	var healthyEL, faultyEL []time.Duration

	d.Run(func() {
		pool.Stage(d.Writer)
		first := sys.RC.Stats()
		for i := 0; time.Duration(d.Env.Now()) < runFor; i++ {
			in := pool.Inputs[i%len(pool.Inputs)]
			outKey = fmt.Sprintf("chaos/out/%d", i)
			start := time.Duration(d.Env.Now())
			before := sys.RC.Stats()
			r := d.Platform.Invoke(&faas.Request{Function: fn, InputKeys: []string{in.Key}, InputFeatures: in.Features})
			after := sys.RC.Stats()

			res.Invocations++
			if r.Err != nil {
				res.Failures++
			} else {
				outputs = append(outputs, outKey)
			}
			// LocalHits is a subset of Hits, so Hits alone counts every hit.
			dh := after.Hits - before.Hits
			dm := after.Misses - before.Misses
			if downAt(start) {
				faultyEL = append(faultyEL, r.Extract+r.Load)
				res.FaultyHits += dh
				res.FaultyMisses += dm
			} else {
				healthyEL = append(healthyEL, r.Extract+r.Load)
				res.HealthyHits += dh
				res.HealthyMisses += dm
			}
			d.Env.Sleep(pace)
		}
		res.ProxyHits = sys.RC.Stats().Hits - first.Hits
		// Let the last victim's recovery and the persistors settle
		// before the Run drain stops the clock.
		d.Env.Sleep(3 * time.Second)
	})

	ratio := func(h, m int64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	res.HealthyHit = ratio(res.HealthyHits, res.HealthyMisses)
	res.FaultyHit = ratio(res.FaultyHits, res.FaultyMisses)
	res.HealthyP99 = p99(healthyEL)
	res.FaultyP99 = p99(faultyEL)

	cs := sys.RC.Stats()
	res.FallbackReads, res.FallbackWrites = cs.FallbackReads, cs.FallbackWrites
	res.CacheRetries, res.CacheTimeouts = cs.CacheRetries, cs.CacheTimeouts
	res.BreakerTrips = cs.BreakerTrips
	ks := sys.KV.Stats()
	res.Recoveries, res.RecoveryTime, res.LastRecovery = ks.Recoveries, ks.RecoveryTime, ks.LastRecovery
	res.Reroutes = d.Platform.Stats().Reroutes
	res.Kills, res.Restarts = len(victims), len(victims)
	res.Applied = inj.Applied()

	// Zero-data-loss check against the RSDS ground truth: every final
	// output acknowledged to an invoker must be persisted (not a
	// dangling shadow) once the run has drained.
	res.Outputs = len(outputs)
	for _, key := range outputs {
		m, ok := d.Store.MetaOf(key)
		if !ok || m.IsShadow() || m.Size == 0 {
			res.LostOutputs++
		}
	}

	t := &Table{
		Title:   "Chaos drill — kill one cache node per minute under a Figure-7-style workload",
		Headers: []string{"Metric", "Value"},
	}
	t.Add("invocations", fmt.Sprintf("%d (%d failed)", res.Invocations, res.Failures))
	t.Add("fault events", fmt.Sprintf("%d kills, %d restarts (downtime %v)", res.Kills, res.Restarts, downtime))
	t.Add("controller reroutes", res.Reroutes)
	t.Add("hit ratio", fmt.Sprintf("healthy %s, under faults %s", pct(res.HealthyHit), pct(res.FaultyHit)))
	t.Add("p99 E+L", fmt.Sprintf("healthy %s, under faults %s", fmtDur(res.HealthyP99), fmtDur(res.FaultyP99)))
	t.Add("RSDS fallbacks", fmt.Sprintf("%d reads, %d writes", res.FallbackReads, res.FallbackWrites))
	t.Add("cache op retries", fmt.Sprintf("%d (%d timeouts)", res.CacheRetries, res.CacheTimeouts))
	t.Add("breaker trips", res.BreakerTrips)
	t.Add("crash recoveries", fmt.Sprintf("%d, total %s, last %s", res.Recoveries, fmtDur(res.RecoveryTime), fmtDur(res.LastRecovery)))
	t.Add("final outputs", fmt.Sprintf("%d persisted, %d lost", res.Outputs-res.LostOutputs, res.LostOutputs))
	t.Note = "graceful degradation: every invocation completes and no acknowledged write is lost"
	return t, res
}
