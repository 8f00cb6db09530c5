package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/workload"
)

// workloadDef is one traffic mix. Everything that shapes the inputs is
// fixed here, so a metric on a workload means the same thing on every
// commit.
type workloadDef struct {
	name string
	why  string
	// warmup is excluded from every metric and count; window is the
	// measured virtual interval after it. The quick pair is the
	// smoke-test scale.
	warmup, window           time.Duration
	quickWarmup, quickWindow time.Duration
	// sloMs is the fixed latency limit behind virt_slo_ok_frac.
	sloMs float64
	// spansPerInv sizes the traced pass's span ring (the program's
	// recorder drops when full, and trace.drops must stay 0).
	spansPerInv int
	options     func() core.Options
	// plan draws pools and the arrival schedule from the seed; it never
	// sees the system under test.
	plan func(seed int64, horizon time.Duration) *plan
}

// plan is the seeded input of one run, shared by every repetition and
// by the CacheOff pass.
type plan struct {
	sched schedule
	// deploy registers and pretrains the functions on a fresh system
	// and returns the two things the runner needs from a workload.
	deploy func(sys *core.System, rec *recorder) driver
}

// driver is a deployed workload.
type driver struct {
	// fns are the registered functions (their model generations sum to
	// the retrain count).
	fns []*faas.Function
	// stage writes the input objects; it runs as a simulation process.
	stage func()
	// issue sends one arrival and blocks until its reply.
	issue func(a *arrival, seq int) outcome
}

// outcome is the reply to one arrival.
type outcome struct {
	// results holds every function invocation the request caused.
	results []*faas.Result
	err     error
	// background marks an arrival that is not a request to the platform
	// (write-pipeline's external RSDS clients): it has no latency sample
	// and err reports a failed verification.
	background bool
	// finals are the acknowledged KindFinal outputs, verified after
	// drain.
	finals []finalObj
}

type finalObj struct {
	key  string
	size int64
}

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// workloads lists the four mixes in report order.
func workloads() []*workloadDef {
	return []*workloadDef{macro24(), hotHit(), coldMiss(), writePipeline()}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// catalogSeed draws the object catalogue (sizes, features, datasets),
// which is the same for every run: -seed draws the requests made
// against it. A catalogue redrawn per seed would make two seeds two
// different workloads (one 50 MB video is 6 segments, another 120).
const catalogSeed = 1

// subSeed derives an independent stream seed; plan and deploy use
// distinct stream numbers so neither perturbs the other.
func subSeed(seed int64, stream int64) int64 {
	return rand.New(rand.NewSource(seed*1000003 + stream)).Int63()
}

// constSamples builds an offline training set for a function whose
// memory, phase times and feature vector are fixed by the workload:
// enough for the predictor to mature with a single-leaf tree.
func constSamples(schema *core.FeatureSchema, features map[string]float64, peak int64, e, t, l time.Duration) []core.Sample {
	vals := make([]float64, len(schema.Names()))
	for i, name := range schema.Names() {
		vals[i] = features[name]
	}
	out := make([]core.Sample, 32)
	for i := range out {
		out[i] = core.Sample{Vals: vals, PeakMem: peak, Extract: e, Transform: t, Load: l, BenefitKnown: true}
	}
	return out
}

func rsdsRead(p objstore.Profile, ops int, bytes int64) time.Duration {
	return time.Duration(ops)*p.ReadBase + time.Duration(float64(bytes)/p.ReadBW*float64(time.Second))
}

func rsdsWrite(p objstore.Profile, ops int, bytes int64) time.Duration {
	return time.Duration(ops)*p.WriteBase + time.Duration(float64(bytes)/p.WriteBW*float64(time.Second))
}

// request tags a benchmark-owned request with its arrival and its
// index within the arrival; bodies read them back to name outputs and
// to parent their spans. The names are in no feature schema, so the
// predictor never sees them.
func request(fn *faas.Function, seq, inv int, keys []string, features map[string]float64) *faas.Request {
	return &faas.Request{
		Function:      fn,
		Args:          map[string]float64{"arrival": float64(seq), "inv": float64(inv)},
		InputKeys:     keys,
		InputFeatures: features,
	}
}

// ---------------------------------------------------------------------
// hot-hit: read-only and cache-resident.

const (
	hotTenants   = 8
	hotObjects   = 256
	hotObjSize   = 16 * kb
	hotKeysPer   = 4
	hotMeanEvery = 40 * time.Millisecond // per tenant: 25/s, 200/s in all
)

func hotHit() *workloadDef {
	return &workloadDef{
		name:   "hot-hit",
		why:    "read-only working set far below the cache grant: invoke path, advice memo, router, proxy hit path and kvstore reads do the work; RSDS, persistor and eviction stay idle",
		warmup: 30 * time.Second, window: 150 * time.Second,
		quickWarmup: 10 * time.Second, quickWindow: 15 * time.Second,
		sloMs:       24.2,
		spansPerInv: 24,
		options:     core.DefaultOptions,
		plan:        hotPlan,
	}
}

func hotPlan(seed int64, horizon time.Duration) *plan {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	z := newZipf(hotObjects, 1.1)
	var sched schedule
	for t := 0; t < hotTenants; t++ {
		trng := rand.New(rand.NewSource(rng.Int63()))
		poisson(trng, hotMeanEvery, horizon, func(due time.Duration) {
			keys := make([]int, hotKeysPer)
			for i := range keys {
				keys[i] = z.draw(trng)
			}
			// Compute time varies per request (3-7 ms, 5 ms on average),
			// so latency quantiles are not pinned to a few constants.
			sched = append(sched, arrival{Due: due, Tenant: t, Keys: keys, Arg: 3 + 4*trng.Float64()})
		})
	}
	sched = sched.sorted()

	keyOf := func(i int) string { return fmt.Sprintf("hot/obj-%03d", i) }
	features := map[string]float64{"size": float64(hotKeysPer * hotObjSize)}
	const peak = 64 * mb
	const transform = 5 * time.Millisecond // the mean; each request carries its own

	deploy := func(sys *core.System, rec *recorder) driver {
		fns := make([]*faas.Function, hotTenants)
		for t := range fns {
			fn := &faas.Function{Name: "hot_read", Tenant: fmt.Sprintf("hot-%d", t),
				MemoryBooked: 256 * mb, InputType: "none"}
			fn.Body = func(ctx *faas.Ctx) error {
				ph := rec.phases(ctx)
				for _, key := range ctx.InputKeys() {
					if _, err := ph.extract(key); err != nil {
						return err
					}
				}
				return ph.transform(time.Duration(ctx.Arg("work_ms")*float64(time.Millisecond)), peak)
			}
			sys.Register(fn)
			p := sys.RSDS.Profile()
			sys.Trainer.Pretrain(fn, constSamples(sys.Pred.Schema(fn), features, peak,
				rsdsRead(p, hotKeysPer, hotKeysPer*hotObjSize), transform, 0))
			fns[t] = fn
		}
		return driver{
			fns: fns,
			stage: func() {
				for i := 0; i < hotObjects; i++ {
					sys.RSDS.Put(sys.CtrlNode, keyOf(i), kvstore.Synthetic(hotObjSize), nil, false)
				}
			},
			issue: func(a *arrival, seq int) outcome {
				keys := make([]string, len(a.Keys))
				for i, k := range a.Keys {
					keys[i] = keyOf(k)
				}
				req := request(fns[a.Tenant], seq, 0, keys, features)
				req.Args["work_ms"] = a.Arg
				res := rec.invoke(sys.Platform, req, seq, 0)
				return outcome{results: []*faas.Result{res}, err: res.Err}
			},
		}
	}
	return &plan{sched: sched, deploy: deploy}
}

// ---------------------------------------------------------------------
// cold-miss: working set far above the cache, with thundering herds.

const (
	coldTenants   = 4
	coldObjects   = 16000
	coldMinSize   = 64 * kb
	coldMaxSize   = 8 * mb
	coldHerd      = 4
	coldMeanEvery = 100 * time.Millisecond // herds: 10/s, 40 invocations/s
	coldWorkerMem = 2 * gb
	coldKeepAlive = time.Minute
)

func coldMiss() *workloadDef {
	return &workloadDef{
		name:   "cold-miss",
		why:    "working set about 8x the cache grant, Zipf(0.8), each key requested by 4 concurrent invocations: proxy miss path, RSDS gets, NIC queueing, admission, reclaim and eviction do the work",
		warmup: 300 * time.Second, window: 2400 * time.Second,
		quickWarmup: 20 * time.Second, quickWindow: 30 * time.Second,
		sloMs:       140,
		spansPerInv: 24,
		options: func() core.Options {
			o := core.DefaultOptions()
			o.NodeCapacity = coldWorkerMem
			// Idle sandboxes leave after a minute, not OpenWhisk's ten:
			// every sandbox that comes or goes moves its node's cache
			// grant by a large share of it, and at ten minutes the window
			// held three or four such states, so the seed decided the
			// mean grant (2.1 to 3.8 GB) and with it the hit ratio. It
			// also makes reclaim ten times as frequent, which is what
			// this workload is for.
			o.FaaS.KeepAlive = coldKeepAlive
			return o
		},
		plan: coldPlan,
	}
}

func coldPlan(seed int64, horizon time.Duration) *plan {
	// Log-uniform sizes: most objects are small, most bytes are in
	// large ones, as in an object store.
	crng := rand.New(rand.NewSource(catalogSeed))
	sizes := make([]int64, coldObjects)
	span := math.Log(float64(coldMaxSize) / float64(coldMinSize))
	for i := range sizes {
		sizes[i] = int64(float64(coldMinSize) * math.Exp(crng.Float64()*span))
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	z := newZipf(coldObjects, 0.8)
	var sched schedule
	poisson(rng, coldMeanEvery, horizon, func(due time.Duration) {
		t, k := rng.Intn(coldTenants), z.draw(rng)
		for h := 0; h < coldHerd; h++ {
			sched = append(sched, arrival{Due: due, Tenant: t, Keys: []int{k}})
		}
	})

	keyOf := func(i int) string { return fmt.Sprintf("cold/obj-%05d", i) }
	const peak = 64 * mb
	const transform = 10 * time.Millisecond

	deploy := func(sys *core.System, rec *recorder) driver {
		fns := make([]*faas.Function, coldTenants)
		p := sys.RSDS.Profile()
		for t := range fns {
			fn := &faas.Function{Name: "cold_read", Tenant: fmt.Sprintf("cold-%d", t),
				MemoryBooked: 1 * gb, InputType: "none"}
			fn.Body = func(ctx *faas.Ctx) error {
				ph := rec.phases(ctx)
				if _, err := ph.extract(ctx.InputKeys()[0]); err != nil {
					return err
				}
				return ph.transform(transform, peak)
			}
			sys.Register(fn)
			// One training vector per size decade is enough: memory
			// is flat and the benefit label is "yes" at every size.
			var samples []core.Sample
			for _, size := range []int64{coldMinSize, 512 * kb, 2 * mb, coldMaxSize} {
				samples = append(samples, constSamples(sys.Pred.Schema(fn),
					map[string]float64{"size": float64(size)}, peak, rsdsRead(p, 1, size), transform, 0)...)
			}
			sys.Trainer.Pretrain(fn, samples)
			fns[t] = fn
		}
		return driver{
			fns: fns,
			stage: func() {
				for i, size := range sizes {
					sys.RSDS.Put(sys.CtrlNode, keyOf(i), kvstore.Synthetic(size), nil, false)
				}
			},
			issue: func(a *arrival, seq int) outcome {
				k := a.Keys[0]
				req := request(fns[a.Tenant], seq, 0, []string{keyOf(k)},
					map[string]float64{"size": float64(sizes[k])})
				res := rec.invoke(sys.Platform, req, seq, 0)
				return outcome{results: []*faas.Result{res}, err: res.Err}
			},
		}
	}
	return &plan{sched: sched, deploy: deploy}
}

// ---------------------------------------------------------------------
// write-pipeline: writes beside reads through the same proxy.

const (
	wpTenants    = 4
	wpInputs     = 64
	wpInputSize  = 4 * mb
	wpFan        = 4
	wpPartSize   = 1 * mb
	wpWorkOut    = 512 * kb
	wpSummary    = 2 * mb
	wpMeanEvery  = time.Second // per tenant: 4 pipelines/s, 24 invocations/s
	wpExtRead    = 2 * time.Second
	wpExtWrite   = 5 * time.Second
	kindPipeline = 0
	kindExtRead  = 1
	kindExtWrite = 2
)

func writePipeline() *workloadDef {
	return &workloadDef{
		name:   "write-pipeline",
		why:    "3-stage pipelines write intermediates, a write-back final and a final above the cache's object ceiling, beside external RSDS clients: put path, replicated writes, persistor and webhooks do the work",
		warmup: 120 * time.Second, window: 600 * time.Second,
		quickWarmup: 10 * time.Second, quickWindow: 30 * time.Second,
		sloMs:       740,
		spansPerInv: 40,
		options:     core.DefaultOptions,
		plan:        wpPlan,
	}
}

func wpPlan(seed int64, horizon time.Duration) *plan {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	var sched schedule
	for t := 0; t < wpTenants; t++ {
		trng := rand.New(rand.NewSource(rng.Int63()))
		poisson(trng, wpMeanEvery, horizon, func(due time.Duration) {
			sched = append(sched, arrival{Due: due, Kind: kindPipeline, Tenant: t,
				Keys: []int{trng.Intn(wpInputs)}, Arg: 16 + 8*trng.Float64()})
		})
	}
	poisson(rng, wpExtRead, horizon, func(due time.Duration) {
		sched = append(sched, arrival{Due: due, Kind: kindExtRead})
	})
	poisson(rng, wpExtWrite, horizon, func(due time.Duration) {
		sched = append(sched, arrival{Due: due, Kind: kindExtWrite, Keys: []int{rng.Intn(wpInputs)}})
	})
	sched = sched.sorted()

	inKey := func(i int) string { return fmt.Sprintf("wp/in-%03d", i) }
	type stage struct {
		peak      int64
		transform time.Duration
	}
	split, work, merge := stage{96 * mb, 20 * time.Millisecond}, stage{80 * mb, 15 * time.Millisecond}, stage{128 * mb, 30 * time.Millisecond}

	deploy := func(sys *core.System, rec *recorder) driver {
		p := sys.RSDS.Profile()
		env := sys.Env
		type tenant struct{ split, work, merge *faas.Function }
		tenants := make([]tenant, wpTenants)
		for t := range tenants {
			name := fmt.Sprintf("wp-%d", t)
			mk := func(fname string, args []string, body func(*faas.Ctx) error) *faas.Function {
				fn := &faas.Function{Name: fname, Tenant: name, MemoryBooked: 512 * mb,
					InputType: "none", ArgNames: args, Body: body}
				sys.Register(fn)
				return fn
			}
			tn := &tenants[t]
			tn.split = mk("wp_split", nil, func(ctx *faas.Ctx) error {
				ph := rec.phases(ctx)
				if _, err := ph.extract(ctx.InputKeys()[0]); err != nil {
					return err
				}
				if err := ph.transform(split.transform, split.peak); err != nil {
					return err
				}
				for j := 0; j < wpFan; j++ {
					if err := ph.load(wpPartKey(ctx.PipelineID(), j), wpPartSize, faas.KindIntermediate); err != nil {
						return err
					}
				}
				return nil
			})
			tn.work = mk("wp_work", nil, func(ctx *faas.Ctx) error {
				ph := rec.phases(ctx)
				in := ctx.InputKeys()[0]
				if _, err := ph.extract(in); err != nil {
					return err
				}
				if err := ph.transform(work.transform, work.peak); err != nil {
					return err
				}
				return ph.load(in+".out", wpWorkOut, faas.KindIntermediate)
			})
			tn.merge = mk("wp_merge", []string{"out_mb"}, func(ctx *faas.Ctx) error {
				ph := rec.phases(ctx)
				for _, key := range ctx.InputKeys() {
					if _, err := ph.extract(key); err != nil {
						return err
					}
				}
				if err := ph.transform(merge.transform, merge.peak); err != nil {
					return err
				}
				id := ctx.PipelineID()
				if err := ph.load(wpSummaryKey(id), wpSummary, faas.KindFinal); err != nil {
					return err
				}
				// Above kvstore's MaxObjectSize: the proxy bypasses the
				// cache and writes the RSDS synchronously.
				return ph.load(wpVideoKey(id), wpVideoSize(ctx.Arg("out_mb")), faas.KindFinal)
			})
			pre := func(fn *faas.Function, f map[string]float64, st stage, e, l time.Duration) {
				sys.Trainer.Pretrain(fn, constSamples(sys.Pred.Schema(fn), f, st.peak, e, st.transform, l))
			}
			pre(tn.split, map[string]float64{"size": float64(wpInputSize)}, split,
				rsdsRead(p, 1, wpInputSize), rsdsWrite(p, wpFan, wpFan*wpPartSize))
			pre(tn.work, map[string]float64{"size": float64(wpPartSize)}, work,
				rsdsRead(p, 1, wpPartSize), rsdsWrite(p, 1, wpWorkOut))
			pre(tn.merge, map[string]float64{"size": float64(wpFan * wpWorkOut), "out_mb": 20}, merge,
				rsdsRead(p, wpFan, wpFan*wpWorkOut), rsdsWrite(p, 2, wpSummary+20*mb))
		}

		// lastSummary is the most recently acknowledged write-back
		// final: what an external client polling for results reads.
		var lastSummary string

		runPipeline := func(a *arrival, seq int) outcome {
			tn := tenants[a.Tenant]
			id := fmt.Sprintf("wp-%d", seq)
			var out outcome
			stageReq := func(fn *faas.Function, inv int, keys []string, size int64, final bool) *faas.Request {
				req := request(fn, seq, inv, keys, map[string]float64{"size": float64(size)})
				req.Pipeline, req.FinalStage = id, final
				return req
			}
			// Stage 1.
			r1 := rec.invoke(sys.Platform, stageReq(tn.split, 0, []string{inKey(a.Keys[0])}, wpInputSize, false), seq, 0)
			out.results = append(out.results, r1)
			if out.err = r1.Err; out.err != nil {
				return out
			}
			// Stage 2: fan out. Each branch starts from an After
			// callback so the scheduler releases them in a fixed order.
			env.Sleep(sys.Platform.Config().ControllerOverhead / 2)
			r2 := make([]*faas.Result, wpFan)
			wg := sim.NewWaitGroup(env)
			for j := 0; j < wpFan; j++ {
				wg.Add(1)
				env.After(0, func() {
					defer wg.Done()
					r2[j] = rec.invoke(sys.Platform, stageReq(tn.work, 1+j, []string{wpPartKey(id, j)}, wpPartSize, false), seq, 1+j)
				})
			}
			wg.Wait()
			out.results = append(out.results, r2...)
			outs := make([]string, wpFan)
			for j, r := range r2 {
				if r.Err != nil {
					out.err = r.Err
					return out
				}
				outs[j] = wpPartKey(id, j) + ".out"
			}
			// Stage 3.
			env.Sleep(sys.Platform.Config().ControllerOverhead / 2)
			req := stageReq(tn.merge, 1+wpFan, outs, wpFan*wpWorkOut, true)
			req.Args["out_mb"] = a.Arg
			r3 := rec.invoke(sys.Platform, req, seq, 1+wpFan)
			out.results = append(out.results, r3)
			if out.err = r3.Err; out.err == nil {
				out.finals = []finalObj{{wpSummaryKey(id), wpSummary}, {wpVideoKey(id), wpVideoSize(a.Arg)}}
				lastSummary = wpSummaryKey(id)
			}
			return out
		}

		var fns []*faas.Function
		for _, tn := range tenants {
			fns = append(fns, tn.split, tn.work, tn.merge)
		}
		return driver{
			fns: fns,
			stage: func() {
				for i := 0; i < wpInputs; i++ {
					sys.RSDS.Put(sys.CtrlNode, inKey(i), kvstore.Synthetic(wpInputSize), nil, false)
				}
			},
			issue: func(a *arrival, seq int) outcome {
				switch a.Kind {
				case kindExtRead:
					// An external client reads the newest result through
					// the RSDS; the §6.2 read webhook holds it until the
					// persistor has replaced the shadow.
					if lastSummary == "" {
						return outcome{background: true}
					}
					_, m, err := sys.RSDS.Get(sys.CtrlNode, lastSummary, true)
					if err == nil && (m.IsShadow() || m.Size != wpSummary) {
						err = fmt.Errorf("external read of %s saw shadow=%v size=%d", lastSummary, m.IsShadow(), m.Size)
					}
					return outcome{background: true, err: err}
				case kindExtWrite:
					// An external client overwrites an input; the write
					// webhook invalidates the cached copy first.
					sys.RSDS.Put(sys.CtrlNode, inKey(a.Keys[0]), kvstore.Synthetic(wpInputSize), nil, true)
					return outcome{background: true}
				}
				return runPipeline(a, seq)
			},
		}
	}
	return &plan{sched: sched, deploy: deploy}
}

func wpPartKey(id string, j int) string { return fmt.Sprintf("pl/%s/part-%d", id, j) }
func wpSummaryKey(id string) string     { return "out/" + id + "/summary" }
func wpVideoKey(id string) string       { return "out/" + id + "/video" }

// wpVideoSize is the large final's size: 16-24 MB, above kvstore's
// 10 MB MaxObjectSize.
func wpVideoSize(outMB float64) int64 { return int64(outMB * float64(mb)) }

// ---------------------------------------------------------------------
// macro24: the paper's §7.2.2 24-tenant mix.

var macroSingle = []string{"wand_blur", "wand_resize", "wand_sepia", "wand_rotate", "wand_denoise", "wand_edge"}

const (
	macroGroups    = 3
	macroMeanEvery = 60 * time.Second
	// macroPerBlock arrivals of a tenant in every 600 s: the warm-up is
	// one such block and the window four, so every seed sends each tenant's
	// 40 requests inside the window.
	macroPerBlock       = 10
	macroPerSize        = 10
	macroPipelineInputs = 24
	macroWorkerMem      = 256 * gb
	macroMaxBooked      = 2 * gb
)

func macro24() *workloadDef {
	return &workloadDef{
		name:   "macro24",
		why:    "the paper's 24-tenant mix (3 x six image functions, MapReduce, THIS video pipeline) with exponential arrivals: every layer works in the paper's proportions, so nothing may regress here",
		warmup: 600 * time.Second, window: 2400 * time.Second,
		quickWarmup: 60 * time.Second, quickWindow: 240 * time.Second,
		sloMs:       6000,
		spansPerInv: 40,
		options: func() core.Options {
			o := core.DefaultOptions()
			o.NodeCapacity = macroWorkerMem
			return o
		},
		plan: macroPlan,
	}
}

func macroPlan(seed int64, horizon time.Duration) *plan {
	// Pools in RunMacro's order, so the catalogue is the dataset of the
	// repo's macro experiment at its default seed.
	rng := rand.New(rand.NewSource(catalogSeed))
	type tenant struct {
		name   string
		spec   *workload.Spec // nil for pipelines
		kind   string         // "map_reduce" or "THIS" for pipelines
		pool   *workload.InputPool
		booked int64
	}
	var tenants []tenant
	for g := 0; g < macroGroups; g++ {
		for _, name := range macroSingle {
			spec := workload.SpecByName(name)
			tn := fmt.Sprintf("%s-%d", name, g)
			pool := workload.NewInputPool(rng, spec.InputType, "macro/"+tn,
				[]int64{1 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}, macroPerSize)
			booked := workload.BookedMem(workload.ProfileNormal, spec.MaxMem(pool, rng), macroMaxBooked)
			tenants = append(tenants, tenant{name: tn, spec: spec, pool: pool, booked: booked})
		}
		mr := fmt.Sprintf("map_reduce-%d", g)
		tenants = append(tenants, tenant{name: mr, kind: "map_reduce",
			pool: workload.NewInputPool(rng, "text", "macro/"+mr, []int64{10 << 20}, macroPipelineInputs)})
		th := fmt.Sprintf("THIS-%d", g)
		tenants = append(tenants, tenant{name: th, kind: "THIS",
			pool: workload.NewInputPool(rng, "video", "macro/"+th, []int64{50 << 20}, macroPipelineInputs)})
	}

	srng := rand.New(rand.NewSource(subSeed(seed, 1)))
	var sched schedule
	for t, tn := range tenants {
		trng := rand.New(rand.NewSource(srng.Int63()))
		// A pipeline's latency is set by the length of its input (a THIS
		// request on the longest video takes twice as long as on the
		// shortest) and, the simulator being deterministic, repeats to
		// the nanosecond. With eight inputs per tenant drawn
		// independently, the tail of the window was a handful of exact
		// levels and its p99 either jumped by 10 % with the number of
		// times a seed picked the two longest videos or read the same on
		// most seeds. So a pipeline tenant has macroPipelineInputs inputs
		// (levels a few percent apart near the p99) and takes them in
		// shuffled rounds, each once per round.
		var round []int
		nextKey := func() int {
			if tn.spec != nil {
				return trng.Intn(len(tn.pool.Inputs))
			}
			if len(round) == 0 {
				round = trng.Perm(len(tn.pool.Inputs))
			}
			k := round[0]
			round = round[1:]
			return k
		}
		poissonBlocks(trng, macroMeanEvery, horizon, macroPerBlock, func(due time.Duration) {
			a := arrival{Due: due, Tenant: t, Keys: []int{nextKey()}}
			if tn.spec != nil {
				// Image functions take one argument; keep its value in
				// the schedule.
				m := tn.spec.GenArgs(trng)
				a.Arg = m[tn.spec.ArgNames[0]]
			}
			sched = append(sched, a)
		})
	}
	sched = sched.sorted()

	deploy := func(sys *core.System, rec *recorder) driver {
		su := workload.NewSuite()
		writer := workload.RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode}
		prng := rand.New(rand.NewSource(subSeed(catalogSeed, 2)))
		fns := make([]*faas.Function, len(tenants))
		pls := make([]*workload.Pipeline, len(tenants))
		for t, tn := range tenants {
			if tn.spec != nil {
				fn := su.Build(tn.spec, tn.name, tn.booked)
				sys.Register(fn)
				sys.Trainer.Pretrain(fn, workload.TrainingSamples(tn.spec, fn, tn.pool, 300, prng, sys.RSDS.Profile()))
				fns[t] = fn
				continue
			}
			var pl *workload.Pipeline
			if tn.kind == "THIS" {
				pl = workload.NewTHIS(su, tn.name, workload.ProfileNormal, macroMaxBooked)
			} else {
				pl = workload.NewMapReduce(su, tn.name, workload.ProfileNormal, macroMaxBooked)
			}
			for _, fn := range pl.Funcs {
				sys.Register(fn)
			}
			pl.Pretrain(sys.Trainer, sys.RSDS.Profile(), 250, prng)
			pls[t] = pl
		}
		var all []*faas.Function
		for t := range tenants {
			if pls[t] != nil {
				all = append(all, pls[t].Funcs...)
			} else {
				all = append(all, fns[t])
			}
		}
		return driver{
			fns: all,
			stage: func() {
				for t, tn := range tenants {
					if pls[t] == nil {
						tn.pool.Stage(writer)
						continue
					}
					for _, in := range tn.pool.Inputs {
						pls[t].StageInput(writer, in)
					}
				}
			},
			issue: func(a *arrival, seq int) outcome {
				tn := tenants[a.Tenant]
				in := tn.pool.Inputs[a.Keys[0]]
				if pl := pls[a.Tenant]; pl != nil {
					// The pipeline bodies and stage fan-out are the
					// workload package's; the benchmark sees the request
					// and its per-stage results.
					pr := rec.pipeline(func() *workload.PipelineResult {
						return pl.Run(sys.Platform, in, fmt.Sprintf("m-%d", seq))
					}, seq)
					return outcome{results: pr.Results, err: pr.Err}
				}
				req := workload.NewRequest(fns[a.Tenant], tn.spec, in, map[string]float64{tn.spec.ArgNames[0]: a.Arg})
				res := rec.invoke(sys.Platform, req, seq, 0)
				return outcome{results: []*faas.Result{res}, err: res.Err}
			},
		}
	}
	return &plan{sched: sched, deploy: deploy}
}
