package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/workload"
)

// AblationWriteback quantifies the shadow-object write-back design
// (§6.2): with it, the Load phase of a cacheable write costs a
// constant ≈11 ms placeholder; without it, the payload goes to the
// RSDS synchronously. The paper claims write-back "is always
// beneficial even for small payloads".
func AblationWriteback(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — write-back via shadow objects vs synchronous RSDS write",
		Headers: []string{"Output size", "Shadow write-back (L)", "Synchronous (L)", "Saving"},
	}
	sizes := []int64{1 << 10, 64 << 10, 1 << 20, 8 << 20}
	for _, size := range sizes {
		cfg := DefaultDeploy()
		cfg.Seed = seed
		d := NewDeployment(ModeOFC, cfg)
		fn := &faas.Function{Name: "wb", Tenant: "abl", MemoryBooked: 256 << 20, InputType: "none",
			Body: func(ctx *faas.Ctx) error {
				return ctx.Load(fmt.Sprintf("abl/out/%d", size), faas.Blob{Size: size}, faas.KindFinal)
			}}
		d.Register(fn)
		d.Platform.Advisor = alwaysCache{}
		var withWB time.Duration
		d.Run(func() {
			res := d.Platform.Invoke(&faas.Request{Function: fn})
			withWB = res.Load
		})
		// Synchronous path: same write, caching disabled.
		d2 := NewDeployment(ModeOFC, cfg)
		d2.Register(fn)
		d2.Platform.Advisor = neverCache{}
		var withoutWB time.Duration
		d2.Run(func() {
			res := d2.Platform.Invoke(&faas.Request{Function: fn})
			withoutWB = res.Load
		})
		t.Add(fmtSize(size), withWB, withoutWB, pct(improvement(withoutWB, withWB)))
	}
	t.Note = "paper §6.2: the shadow mechanism 'is always beneficial even for small payloads'"
	return t
}

type alwaysCache struct{}

func (alwaysCache) Advise(req *faas.Request) faas.Advice {
	return faas.Advice{Mem: 128 << 20, ShouldCache: true, Use: true}
}

type neverCache struct{}

func (neverCache) Advise(req *faas.Request) faas.Advice {
	return faas.Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
}

// AblationMigration compares OFC's migration-by-promotion against
// RAMCloud's native full-transfer migration for the same aggregate
// sizes (§6.4's optimization).
func AblationMigration(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — migration-by-promotion vs full object transfer",
		Headers: []string{"Aggregate", "Promotion", "Full transfer", "Speedup"},
	}
	cfg := DefaultDeploy()
	cfg.Seed = seed
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	sizes := []int64{8 << 20, 64 << 20, 256 << 20}
	type pair struct{ promo, full time.Duration }
	results := map[int64]pair{}
	d.Env.Go(func() {
		for i := range d.Workers {
			inv := sys.Platform.Invokers()[i]
			g := inv.SetCacheGrant(inv.Capacity())
			sys.KV.SetMemoryLimit(d.Workers[i], g)
		}
		for _, total := range sizes {
			n := int(total / (8 << 20))
			var p pair
			// Promotion.
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("ablp/%d/%d", total, i)
				sys.KV.Write(sys.CtrlNode, keys[i], kvstore.Synthetic(8<<20), map[string]string{"kind": "input"}, d.Workers[0])
			}
			start := sys.Env.Now()
			for _, k := range keys {
				if err := sys.KV.MigrateToBackup(k); err != nil {
					panic(err)
				}
			}
			p.promo = time.Duration(sys.Env.Now() - start)
			for _, k := range keys {
				sys.KV.Evict(k)
			}
			// Full transfer.
			for i := range keys {
				keys[i] = fmt.Sprintf("ablf/%d/%d", total, i)
				sys.KV.Write(sys.CtrlNode, keys[i], kvstore.Synthetic(8<<20), map[string]string{"kind": "input"}, d.Workers[0])
			}
			start = sys.Env.Now()
			for _, k := range keys {
				if err := sys.KV.MigrateFull(k, d.Workers[1]); err != nil {
					panic(err)
				}
			}
			p.full = time.Duration(sys.Env.Now() - start)
			for _, k := range keys {
				sys.KV.Evict(k)
			}
			results[total] = p
		}
		sys.Env.Stop()
	})
	d.Env.Run()
	for _, s := range sizes {
		p := results[s]
		t.Add(fmtSize(s), p.promo, p.full, fmt.Sprintf("%.1fx", float64(p.full)/float64(p.promo)))
	}
	return t
}

// AblationRouting compares OFC's locality-aware routing against plain
// home-invoker hashing: with locality off, a cached input is usually
// mastered on a different node than the executing sandbox, turning
// local hits into remote hits.
func AblationRouting(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — locality-aware routing vs home-invoker hashing",
		Headers: []string{"Routing", "Local hits", "Remote hits", "Mean E"},
	}
	spec := workload.SpecByName("wand_sepia")
	for _, locality := range []bool{true, false} {
		cfg := DefaultDeploy()
		cfg.Seed = seed
		d := NewDeployment(ModeOFC, cfg)
		fn := d.Suite.Build(spec, "ablr", 0)
		d.Register(fn)
		rng := rand.New(rand.NewSource(seed))
		pool := workload.NewInputPool(rng, "image", "ablr", []int64{64 << 10}, 6)
		d.Pretrain(spec, fn, pool, 300)
		if !locality {
			d.Platform.Router = nil // fall back to vanilla OWK routing
		}
		var meanE time.Duration
		d.Run(func() {
			pool.Stage(d.Writer)
			// Seed the cache from several nodes so masters spread out.
			for i, in := range pool.Inputs {
				restore := d.PinTo(d.Workers[i%len(d.Workers)])
				d.Platform.Invoke(workload.NewRequest(fn, spec, in, spec.GenArgs(rng)))
				restore()
			}
			d.Env.Sleep(2 * time.Second)
			var total time.Duration
			n := 24
			for i := 0; i < n; i++ {
				in := pool.Inputs[i%len(pool.Inputs)]
				res := d.Platform.Invoke(workload.NewRequest(fn, spec, in, spec.GenArgs(rng)))
				total += res.Extract
			}
			meanE = total / time.Duration(n)
		})
		stats := d.Sys.RC.Stats()
		name := "locality (OFC §6.5)"
		if !locality {
			name = "hash-only (vanilla OWK)"
		}
		t.Add(name, stats.LocalHits, stats.Hits-stats.LocalHits, meanE)
	}
	return t
}

// AblationIntervalBump measures the §5.3 conservative next-interval
// bump. On inputs the model trained on, predictions are exact and the
// bump only costs memory; the protection shows on *unseen* inputs
// (distribution shift), where raw predictions underprovision and
// trigger OOM retries.
func AblationIntervalBump(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — conservative next-interval bump vs raw prediction",
		Headers: []string{"Policy", "Inputs", "Invocations", "OOM retries", "Mean sandbox MB"},
	}
	spec := workload.SpecByName("wand_denoise")
	for _, unseen := range []bool{false, true} {
		for _, bump := range []bool{true, false} {
			cfg := DefaultDeploy()
			cfg.Seed = seed
			d := NewDeployment(ModeOFC, cfg)
			fn := d.Suite.Build(spec, "ablb", 0)
			d.Register(fn)
			rng := rand.New(rand.NewSource(seed))
			trainPool := workload.NewInputPool(rng, "image", "ablb-tr", []int64{32 << 10, 128 << 10, 1 << 20}, 4)
			d.Pretrain(spec, fn, trainPool, 300)
			evalPool := trainPool
			if unseen {
				// Fresh inputs between and beyond the trained sizes.
				evalPool = workload.NewInputPool(rng, "image", "ablb-ev", []int64{64 << 10, 512 << 10, 2 << 20}, 4)
			}
			if !bump {
				d.Platform.Advisor = rawAdvisor{inner: d.Sys.Pred}
			}
			var totalMem int64
			n := 100
			d.Run(func() {
				evalPool.Stage(d.Writer)
				for i := 0; i < n; i++ {
					in := evalPool.Pick()
					res := d.Platform.Invoke(workload.NewRequest(fn, spec, in, spec.GenArgs(rng)))
					totalMem += res.InitialMem
				}
			})
			stats := d.Platform.Stats()
			name := "next-interval bump (§5.3)"
			if !bump {
				name = "raw prediction"
			}
			inputs := "trained"
			if unseen {
				inputs = "unseen"
			}
			t.Add(name, inputs, stats.Invocations, stats.Retries, (totalMem/int64(n))>>20)
		}
	}
	t.Note = "the §5.3 bump buys OOM protection on unseen inputs for one interval of memory"
	return t
}

// rawAdvisor undoes the predictor's conservative bump by one interval.
type rawAdvisor struct{ inner faas.Advisor }

func (r rawAdvisor) Advise(req *faas.Request) faas.Advice {
	adv := r.inner.Advise(req)
	if adv.Use {
		adv.Mem -= 16 << 20
	}
	return adv
}

// AblationKeepAlive sweeps the sandbox keep-alive window (§2.2.1: 10
// min in OWK, 20 in Azure): shorter windows reclaim memory sooner but
// reintroduce cold starts; OFC's hoarding depends on the idle
// sandboxes existing at all.
func AblationKeepAlive(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — sandbox keep-alive window",
		Headers: []string{"Keep-alive", "Invocations", "Cold starts", "Mean latency", "Peak cache grant"},
	}
	spec := workload.SpecByName("wand_rotate")
	for _, keep := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute} {
		opts := core.DefaultOptions()
		opts.Seed = seed
		opts.FaaS.KeepAlive = keep
		sys := core.NewSystem(opts)
		su := workload.NewSuite()
		fn := su.Build(spec, "ka", 0)
		sys.Register(fn)
		rng := rand.New(rand.NewSource(seed))
		pool := workload.NewInputPool(rng, "image", "ka", []int64{32 << 10}, 3)
		sys.Trainer.Pretrain(fn, workload.TrainingSamples(spec, fn, pool, 300, rng, sys.RSDS.Profile()))
		fl := workload.NewFaaSLoad(sys.Env, sys.Platform, seed+3)
		// Arrivals sparser than the shortest keep-alive: 2.5-minute mean.
		fl.AddFunctionTenant("ka", spec, fn, pool, 150*time.Second)
		var peakGrant int64
		sys.Env.SetHorizon(32 * time.Minute)
		sys.Start()
		sys.Env.Every(15*time.Second, func() bool {
			if g := sys.CacheGrantBytes(); g > peakGrant {
				peakGrant = g
			}
			return true
		})
		sys.Env.Go(func() {
			pool.Stage(workload.RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode})
			fl.Start(30 * time.Minute)
		})
		sys.Env.Run()
		rep := fl.Reports()[0]
		mean := time.Duration(0)
		if rep.Invocations > 0 {
			mean = rep.TotalExec / time.Duration(rep.Invocations)
		}
		t.Add(keep.String(), rep.Invocations, rep.ColdStarts, mean, fmtSize(peakGrant))
	}
	t.Note = "shorter keep-alive → more cold starts and a smaller hoardable pool (§2.2.1's trade-off)"
	return t
}

// AblationConsistency compares the §6.2 strong path (synchronous
// shadow + eager persistor) against the relaxed opt-out (cache-only
// write, lazy write-back) on the write critical path.
func AblationConsistency(seed int64) *Table {
	t := &Table{
		Title:   "Ablation — strong (shadow) vs relaxed (§6.2 opt-out) write path",
		Headers: []string{"Mode", "Output", "Load phase", "RSDS eager?"},
	}
	const size = 256 << 10
	for _, relaxed := range []bool{false, true} {
		cfg := DefaultDeploy()
		cfg.Seed = seed
		if relaxed {
			cfg.Tune = func(o *core.Options) { o.RelaxedPrefixes = []string{"rx/"} }
		}
		d := NewDeployment(ModeOFC, cfg)
		fn := &faas.Function{Name: "cw", Tenant: "abl", MemoryBooked: 512 << 20, InputType: "none",
			Body: func(ctx *faas.Ctx) error {
				return ctx.Load("rx/out", faas.Blob{Size: size}, faas.KindFinal)
			}}
		d.Register(fn)
		d.Platform.Advisor = alwaysCache{}
		var load time.Duration
		var eager bool
		d.Run(func() {
			res := d.Platform.Invoke(&faas.Request{Function: fn})
			load = res.Load
			_, eager = d.Store.MetaOf("rx/out")
		})
		mode := "strong (shadow + persistor)"
		if relaxed {
			mode = "relaxed (lazy write-back)"
		}
		t.Add(mode, fmtSize(size), load, fmt.Sprintf("%v", eager))
	}
	return t
}
