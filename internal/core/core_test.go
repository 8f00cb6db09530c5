package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/memctl"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

func TestIntervals(t *testing.T) {
	iv := DefaultIntervals()
	if iv.NumClasses() != 128 {
		t.Errorf("classes=%d", iv.NumClasses())
	}
	cases := []struct {
		bytes int64
		class int
	}{
		{0, 0}, {1, 0}, {16 << 20, 0}, {16<<20 + 1, 1}, {100 << 20, 6}, {2 << 30, 127}, {3 << 30, 127},
	}
	for _, c := range cases {
		if got := iv.ClassOf(c.bytes); got != c.class {
			t.Errorf("ClassOf(%d)=%d, want %d", c.bytes, got, c.class)
		}
	}
	if ub := iv.UpperBound(0); ub != 16<<20 {
		t.Errorf("UpperBound(0)=%d", ub)
	}
	if ub := iv.UpperBound(127); ub != 2<<30 {
		t.Errorf("UpperBound(127)=%d", ub)
	}
	if ub := iv.UpperBound(500); ub != 2<<30 {
		t.Errorf("UpperBound clamp=%d", ub)
	}
	names := iv.ClassNames()
	if names[0] != "16MB" || names[127] != "2048MB" {
		t.Errorf("names=%v...%v", names[0], names[127])
	}
}

func TestFeatureSchemaVector(t *testing.T) {
	fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}}
	s := NewFeatureSchema(fn)
	want := []string{"size", "width", "height", "channels", "sigma"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("names=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names=%v, want %v", got, want)
		}
	}
	req := &faas.Request{
		Function:      fn,
		Args:          map[string]float64{"sigma": 2.5},
		InputFeatures: map[string]float64{"size": 1024, "width": 640, "height": 480},
	}
	v := s.Vector(req)
	if v[0] != 1024 || v[1] != 640 || v[2] != 480 || v[4] != 2.5 {
		t.Errorf("vector=%v", v)
	}
	if !isNaN(v[3]) {
		t.Errorf("channels should be missing, got %v", v[3])
	}
}

func isNaN(v float64) bool { return v != v }

// synthSamples builds samples from a synthetic memory law: mem = 64MB
// + size/1kB MB + 20*sigma MB. Inputs are drawn from a finite pool of
// distinct objects and a discrete argument set, as FaaSLoad does with
// its prepared datasets — which is what makes decision trees accurate
// on this task.
func synthSamples(schema *FeatureSchema, n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	type input struct{ size, width float64 }
	pool := make([]input, 16)
	for i := range pool {
		pool[i] = input{
			size:  float64(1+rng.Intn(128)) * 1024, // 1..128 kB
			width: float64(100 + rng.Intn(19)*100),
		}
	}
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		in := pool[rng.Intn(len(pool))]
		size := in.size
		width := in.width
		sigma := float64(1+rng.Intn(8)) * 0.5 // discrete user argument
		mem := int64(64<<20) + int64(size/1024)*(1<<20) + int64(20*sigma)*(1<<20)
		vals := make([]float64, len(schema.Names()))
		for j, name := range schema.Names() {
			switch name {
			case "size":
				vals[j] = size
			case "width":
				vals[j] = width
			case "height":
				vals[j] = width * 0.75
			case "channels":
				vals[j] = 3
			case "sigma":
				vals[j] = sigma
			}
		}
		out = append(out, Sample{
			Vals: vals, PeakMem: mem,
			Extract: 40 * time.Millisecond, Transform: 20 * time.Millisecond, Load: 115 * time.Millisecond,
			BenefitKnown: true,
		})
	}
	return out
}

func TestOnlineMaturation(t *testing.T) {
	env := sim.NewEnv(1)
	pred := NewPredictor()
	trainer := NewModelTrainer(pred, env)
	fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	schema := pred.Schema(fn)
	samples := synthSamples(schema, 500, 42)
	matured := 0
	for i, s := range samples {
		trainer.Observe(fn, &faas.Request{Function: fn}, s)
		if pred.Mature(fn) {
			matured = i + 1
			break
		}
	}
	if matured == 0 {
		t.Fatal("model never matured in 500 invocations")
	}
	// Paper §7.1.3: median 100, 95% under 450.
	if matured > 450 {
		t.Errorf("matured after %d invocations", matured)
	}
	// Advice must now be usable and conservative.
	req := &faas.Request{Function: fn, Args: map[string]float64{"sigma": 3},
		InputFeatures: map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3}}
	adv := pred.Advise(req)
	if !adv.Use {
		t.Fatal("mature model gives no advice")
	}
	trueMem := int64(64<<20) + 64*(1<<20) + 60*(1<<20) // per the synthetic law
	if adv.Mem < trueMem-32<<20 {
		t.Errorf("advice %dMB way below true %dMB", adv.Mem>>20, trueMem>>20)
	}
	if adv.Mem > 2<<30 {
		t.Errorf("advice above the OWK ceiling")
	}
	if !adv.ShouldCache {
		t.Error("E+L dominate (155ms vs 20ms); caching should be advised")
	}
}

func TestImmatureModelGivesNoAdvice(t *testing.T) {
	pred := NewPredictor()
	fn := &faas.Function{Name: "f", Tenant: "t", InputType: "image", MemoryBooked: 1 << 30}
	adv := pred.Advise(&faas.Request{Function: fn})
	if adv.Use || adv.ShouldCache {
		t.Errorf("advice=%+v from blank model", adv)
	}
}

func TestPretrainMaturesImmediately(t *testing.T) {
	env := sim.NewEnv(1)
	pred := NewPredictor()
	trainer := NewModelTrainer(pred, env)
	fn := &faas.Function{Name: "g", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 300, 7))
	if !pred.Mature(fn) {
		t.Fatal("pretrained model not mature")
	}
}

func TestBenefitLabel(t *testing.T) {
	s := Sample{Extract: 40 * time.Millisecond, Transform: 20 * time.Millisecond, Load: 115 * time.Millisecond}
	if !s.BenefitLabel() {
		t.Error("E+L=155 of 175 total: should be beneficial")
	}
	s = Sample{Extract: 5 * time.Millisecond, Transform: 300 * time.Millisecond, Load: 5 * time.Millisecond}
	if s.BenefitLabel() {
		t.Error("compute-bound: not beneficial")
	}
	s = Sample{}
	if s.BenefitLabel() {
		t.Error("zero sample labeled beneficial")
	}
}

// newSystem builds a small OFC stack for integration tests.
func newSystem(seed int64) *System { return NewSystem(testOptions(seed)) }

// testOptions is the 3-worker shape newSystem deploys, for tests that
// set more options before NewSystem.
func testOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Workers = 3
	opts.NodeCapacity = 4 << 30
	return opts
}

// imageFn builds a learnable test function: reads the input, computes,
// writes a final output half the input size.
func imageFn(name string, compute time.Duration) *faas.Function {
	return &faas.Function{
		Name: name, Tenant: "t", MemoryBooked: 1 << 30, InputType: "image",
		ArgNames: []string{"sigma"},
		Body: func(ctx *faas.Ctx) error {
			key := ctx.InputKeys()[0]
			blob, err := ctx.Extract(key)
			if err != nil {
				return err
			}
			peak := int64(64<<20) + blob.Size*100 + int64(ctx.Arg("sigma")*20)*(1<<20)
			if err := ctx.Transform(compute, peak); err != nil {
				return err
			}
			return ctx.Load("out/"+key, faas.Blob{Size: blob.Size / 2}, faas.KindFinal)
		},
	}
}

func TestSystemEndToEndCaching(t *testing.T) {
	sys := newSystem(1)
	fn := imageFn("blur", 20*time.Millisecond)
	sys.Register(fn)
	// Pretrain so caching starts immediately.
	sys.Trainer.Pretrain(fn, synthSamples(sys.Pred.Schema(fn), 300, 3))

	var first, second *faas.Result
	sys.Run(func() {
		sys.RSDS.Put(sys.CtrlNode, "img/1", kvstore.Synthetic(64<<10), nil, false)
		req := func() *faas.Request {
			return &faas.Request{Function: fn, InputKeys: []string{"img/1"},
				Args:          map[string]float64{"sigma": 2},
				InputFeatures: map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3}}
		}
		first = sys.Platform.Invoke(req())
		sys.Env.Sleep(time.Second) // let the admission land
		second = sys.Platform.Invoke(req())
	})
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v %v", first.Err, second.Err)
	}
	// First read misses (RSDS ≈40ms); second hits the cache (µs-ms).
	if first.Extract < 35*time.Millisecond {
		t.Errorf("first extract=%v, want RSDS cost", first.Extract)
	}
	if second.Extract > 5*time.Millisecond {
		t.Errorf("second extract=%v, want cache hit", second.Extract)
	}
	// Both loads use the shadow write-back: ≈11ms, far below the
	// ≈115ms synchronous Swift PUT.
	if first.Load > 30*time.Millisecond {
		t.Errorf("first load=%v, want shadow cost", first.Load)
	}
	stats := sys.RC.Stats()
	if stats.Hits < 1 || stats.Misses < 1 || stats.Admissions < 1 {
		t.Errorf("stats=%+v", stats)
	}
	if stats.WriteBacks < 1 {
		t.Errorf("no write-backs: %+v", stats)
	}
	// Final outputs must be persisted in the RSDS and discarded from
	// the cache.
	m, ok := sys.RSDS.MetaOf("out/img/1")
	if !ok || m.IsShadow() {
		t.Errorf("final output not persisted: ok=%v meta=%+v", ok, m)
	}
	if _, found := sys.KV.MasterOf("out/img/1"); found {
		t.Error("final output still cached after write-back")
	}
}

func TestPipelineIntermediatesDiscarded(t *testing.T) {
	sys := newSystem(1)
	stage1 := &faas.Function{Name: "map", Tenant: "t", MemoryBooked: 512 << 20, InputType: "text",
		Body: func(ctx *faas.Ctx) error {
			return ctx.Load("mid/x", faas.Blob{Size: 1 << 20}, faas.KindIntermediate)
		}}
	stage2 := &faas.Function{Name: "reduce", Tenant: "t", MemoryBooked: 512 << 20, InputType: "text",
		Body: func(ctx *faas.Ctx) error {
			if _, err := ctx.Extract("mid/x"); err != nil {
				return err
			}
			return ctx.Load("final/x", faas.Blob{Size: 1 << 10}, faas.KindFinal)
		}}
	sys.Register(stage1)
	sys.Register(stage2)
	// Force caching on without ML (advisor off, manual shouldCache):
	// use a stub advisor that always advises caching.
	sys.Platform.Advisor = advisorAlways{}

	var results []*faas.Result
	var cachedDuringPipeline bool
	sys.Run(func() {
		r1 := sys.Platform.Invoke(&faas.Request{Function: stage1, Pipeline: "p1"})
		_, cachedDuringPipeline = sys.KV.MasterOf("mid/x")
		r2 := sys.Platform.Invoke(&faas.Request{Function: stage2, Pipeline: "p1", FinalStage: true, InputKeys: []string{"mid/x"}})
		results = []*faas.Result{r1, r2}
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("stage %d: %v", i+1, r.Err)
		}
	}
	if !cachedDuringPipeline {
		t.Error("intermediate not cached during pipeline")
	}
	// After the final stage: intermediate gone from cache and never in
	// the RSDS.
	if _, found := sys.KV.MasterOf("mid/x"); found {
		t.Error("intermediate still cached after pipeline end")
	}
	if _, ok := sys.RSDS.MetaOf("mid/x"); ok {
		t.Error("intermediate persisted to the RSDS")
	}
	// Stage 2's extract hit the cache.
	if results[1].Extract > 5*time.Millisecond {
		t.Errorf("stage2 extract=%v, want cache hit", results[1].Extract)
	}
}

// advisorAlways forces caching with a fixed memory advice.
type advisorAlways struct{}

func (advisorAlways) Advise(req *faas.Request) faas.Advice {
	return faas.Advice{Mem: 256 << 20, ShouldCache: true, Use: true}
}

// shadowSystem is a system whose workers' caches have room for a
// write-back final and no agent to resize them, so a cached final
// stays a shadow in the RSDS until its persistor runs.
func shadowSystem() *System {
	opts := testOptions(1)
	opts.DisableCacheAgents = true
	sys := NewSystem(opts)
	for _, w := range sys.WorkerNodes {
		sys.KV.SetMemoryLimit(w, 1<<30)
	}
	return sys
}

// TestExternalReadBlocksOnShadow: an external read that arrives while
// a cached final is still a shadow in the RSDS blocks in the read
// webhook until the persistor has pushed the payload, then returns the
// persisted version at full size (§6.2).
func TestExternalReadBlocksOnShadow(t *testing.T) {
	sys := shadowSystem()
	const key, size = "obj/ext", 4 << 20
	var atRead objstore.Meta
	var read struct {
		blob faas.Blob
		meta objstore.Meta
		err  error
		done bool
	}
	fn := &faas.Function{Name: "w", Tenant: "t", MemoryBooked: 256 << 20, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			if err := ctx.Load(key, faas.Blob{Size: size}, faas.KindFinal); err != nil {
				return err
			}
			// The external client reads right after the write-back
			// final was acknowledged, before its persistor has run.
			atRead, _ = sys.RSDS.MetaOf(key)
			sys.Env.Go(func() {
				read.blob, read.meta, read.err = sys.RSDS.Get(sys.StorageNode, key, true)
				read.done = true
			})
			return nil
		}}
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	sys.Run(func() {
		if res := sys.Platform.Invoke(&faas.Request{Function: fn}); res.Err != nil {
			t.Fatalf("invoke: %v", res.Err)
		}
	})
	if !atRead.IsShadow() {
		t.Fatalf("the object was not a shadow when the read began: %+v", atRead)
	}
	if !read.done || read.err != nil {
		t.Fatalf("external get: done=%v err=%v", read.done, read.err)
	}
	if read.meta.IsShadow() || read.meta.PersistedVersion != atRead.LatestVersion || read.blob.Size != size {
		t.Errorf("external read returned %+v (%d bytes), want version %d persisted at %d bytes",
			read.meta, read.blob.Size, atRead.LatestVersion, size)
	}
}

// TestFallbackReadWaitsOutShadow: the master of a cached final crashes
// before the final is persisted, so the persistor finds the cache
// unreachable and reschedules. A proxy read meanwhile falls back to
// the RSDS, finds the shadow, waits on the pending write-back, and
// returns the payload once recovery has let the persistor push it.
func TestFallbackReadWaitsOutShadow(t *testing.T) {
	sys := shadowSystem()
	const key, size = "obj/crash", 4 << 20
	sys.Run(func() {
		w := sys.WorkerNodes[0]
		if err := sys.RC.Put(w, key, kvstore.Synthetic(size), faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
			t.Fatalf("put: %v", err)
		}
		shadow, _ := sys.RSDS.MetaOf(key)
		master, ok := sys.KV.MasterOf(key)
		if !shadow.IsShadow() || !ok {
			t.Fatalf("after the put: meta %+v, cached=%v; want a cached shadow", shadow, ok)
		}
		// The master's machine fails before the persistor reads the
		// payload; recovery starts as ApplyChaos starts it.
		sys.Net.SetNodeDown(master, true)
		sys.Platform.InvokerOn(master).Crash()
		sys.Env.Go(func() { sys.KV.Recover(master) })

		reader := sys.WorkerNodes[1]
		if reader == master {
			reader = sys.WorkerNodes[2]
		}
		start := sys.Env.Now()
		blob, err := sys.RC.Get(reader, key, faas.PutOpts{})
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if blob.Size != size {
			t.Errorf("get returned %d bytes, want %d", blob.Size, size)
		}
		if m, _ := sys.RSDS.MetaOf(key); m.IsShadow() || m.PersistedVersion != shadow.LatestVersion {
			t.Errorf("after the get: meta %+v, want version %d persisted", m, shadow.LatestVersion)
		}
		if waited := time.Duration(sys.Env.Now() - start); waited < persistRetryDelay {
			t.Errorf("get returned after %v, before the persist could be retried (%v)", waited, persistRetryDelay)
		}
		if st := sys.RC.Stats(); st.FallbackReads != 1 {
			t.Errorf("fallback reads=%d, want 1", st.FallbackReads)
		}
	})
}

func TestExternalWriteInvalidatesCache(t *testing.T) {
	sys := newSystem(1)
	sys.Run(func() {
		sys.KV.Write(sys.WorkerNodes[0], "obj/k", kvstore.Synthetic(1<<20), &kvstore.State{Kind: kvstore.KindInput}, sys.WorkerNodes[0])
		sys.RSDS.Put(sys.CtrlNode, "obj/k", kvstore.Synthetic(2<<20), nil, true) // external write
		if _, found := sys.KV.MasterOf("obj/k"); found {
			t.Error("cached copy survived external write")
		}
	})
}

func TestCacheAgentGrowAndReclaim(t *testing.T) {
	sys := newSystem(1)
	sys.Start()
	agent := sys.Agents()[0]
	inv := sys.Platform.Invokers()[0]
	// A live sandbox with a large booking donates its waste to the
	// cache (§1): booked 2 GB, advised 256 MB.
	fn := &faas.Function{Name: "donor", Tenant: "t", MemoryBooked: 2 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error { return nil }}
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	var took time.Duration
	sys.Env.Go(func() {
		restore := sys.Platform.Router
		sys.Platform.Router = pinTo{node: inv.Node()}
		if res := sys.Platform.Invoke(&faas.Request{Function: fn}); res.Err != nil {
			t.Fatalf("donor invoke: %v", res.Err)
		}
		sys.Platform.Router = restore
		sys.Env.Sleep(time.Second)
		grant := inv.CacheGrant()
		want := inv.BookedWaste()
		if grant != want || grant < 1<<30 {
			t.Errorf("grant=%d, want booked waste %d", grant, want)
		}
		// Give the other nodes cache room so migration has a target
		// (their own sandboxes would normally provide it).
		for _, w := range sys.WorkerNodes[1:] {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		// Fill the cache a bit, then reclaim more than free-in-grant.
		sys.KV.Write(inv.Node(), "a", kvstore.Synthetic(8<<20), &kvstore.State{Kind: kvstore.KindInput}, inv.Node())
		var err error
		took, err = agent.Reclaim(grant - 4<<20) // leaves less than the object size
		if err != nil {
			t.Errorf("reclaim: %v", err)
		}
		if inv.CacheGrant() != grant-(grant-4<<20) {
			t.Errorf("grant after reclaim=%d", inv.CacheGrant())
		}
		// The hot input should have been migrated, not lost.
		if _, _, err := sys.KV.Read(sys.WorkerNodes[1], "a"); err != nil {
			t.Errorf("object lost in reclaim: %v", err)
		}
		if m, _ := sys.KV.MasterOf("a"); m == inv.Node() {
			t.Error("object still mastered on the reclaimed node")
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
	if took <= 0 || took > 5*time.Millisecond {
		t.Errorf("reclaim critical path took %v", took)
	}
	m := agent.Metrics()
	if m.ScaleUps == 0 || m.ScaleDownMigration != 1 {
		t.Errorf("metrics=%+v", m)
	}
}

func TestPeriodicEvictionPolicy(t *testing.T) {
	sys := newSystem(1)
	cfg := DefaultCacheAgentConfig()
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, cfg)
	sys.Env.Go(func() {
		inv.SetCacheGrant(1 << 30)
		node := inv.Node()
		// cold: 1 access, idle.
		sys.KV.Write(node, "cold", kvstore.Synthetic(1<<20), &kvstore.State{Kind: kvstore.KindInput}, node)
		// hot: accessed 6 times.
		sys.KV.Write(node, "hot", kvstore.Synthetic(1<<20), &kvstore.State{Kind: kvstore.KindInput}, node)
		for i := 0; i < 6; i++ {
			sys.Env.Sleep(30 * time.Second)
			sys.KV.Read(node, "hot")
		}
		sys.Env.Sleep(cfg.EvictionEvery) // age both beyond one period
		agent.periodicEviction()
		if _, found := sys.KV.MasterOf("cold"); found {
			t.Error("cold object survived periodic eviction (n_access < 5)")
		}
		if _, found := sys.KV.MasterOf("hot"); !found {
			t.Error("hot object evicted")
		}
		// Idle criterion: hot object untouched for > 30 min dies too.
		sys.Env.Sleep(31 * time.Minute)
		agent.periodicEviction()
		if _, found := sys.KV.MasterOf("hot"); found {
			t.Error("idle object survived (T_access > 30 min)")
		}
	})
	sys.Env.Run()
}

func TestRouterPrefersDataLocality(t *testing.T) {
	sys := newSystem(1)
	fn := imageFn("route", 5*time.Millisecond)
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	target := sys.WorkerNodes[2]
	var res *faas.Result
	sys.Run(func() {
		// Master the input object's cached copy on worker 2.
		sys.Platform.Invokers()[2].SetCacheGrant(1 << 30)
		sys.KV.Write(target, "img/loc", kvstore.Synthetic(32<<10), &kvstore.State{Kind: kvstore.KindInput}, target)
		res = sys.Platform.Invoke(&faas.Request{Function: fn, InputKeys: []string{"img/loc"},
			Args: map[string]float64{"sigma": 1}})
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Node != target {
		t.Errorf("routed to %v, want data node %v", res.Node, target)
	}
	// And it was a local hit.
	if sys.RC.Stats().LocalHits != 1 {
		t.Errorf("stats=%+v", sys.RC.Stats())
	}
}

// churnSystem is a one-worker deployment (so every sandbox lands on
// invoker 0) with a function whose cold start reserves mem and whose
// idle sandbox gives it back after keepAlive.
func churnSystem(seed int64, mem int64, keepAlive time.Duration) (*System, *faas.Function) {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Workers = 1
	opts.NodeCapacity = 4 << 30
	opts.FaaS.KeepAlive = keepAlive
	sys := NewSystem(opts)
	fn := &faas.Function{Name: "churn", Tenant: "t", MemoryBooked: mem, InputType: "none",
		Body: func(ctx *faas.Ctx) error { return nil }}
	sys.Register(fn)
	return sys, fn
}

func TestSlackAdjustsToChurn(t *testing.T) {
	const keepAlive = time.Minute
	sys, fn := churnSystem(1, 700<<20, keepAlive)
	cfg := DefaultCacheAgentConfig()
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, cfg)
	sys.Run(func() {
		if agent.Slack() != memctl.InitialSlack {
			t.Errorf("initial slack=%d", agent.Slack())
		}
		// Churn: a 700MB sandbox comes and goes between samples.
		inv.SetCacheGrant(0)
		for i := 0; i < 4; i++ {
			if res := sys.Platform.Invoke(&faas.Request{Function: fn}); res.Err != nil {
				t.Fatalf("invoke: %v", res.Err)
			}
			agent.sampleChurn()
			sys.Env.Sleep(keepAlive + time.Second)
			agent.sampleChurn()
		}
		agent.adjustSlack()
		if s := agent.Slack(); s != 700<<20 {
			t.Errorf("slack=%dMB, want 700MB (max churn)", s>>20)
		}
	})
}

func TestRelaxedConsistencySkipsShadow(t *testing.T) {
	relaxed := func(seed int64) *System {
		opts := testOptions(seed)
		opts.RelaxedPrefixes = []string{"lazy/"}
		return NewSystem(opts)
	}
	sys := relaxed(1)
	fn := &faas.Function{Name: "relax", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			if err := ctx.Load("lazy/out", faas.Blob{Size: 1 << 20}, faas.KindFinal); err != nil {
				return err
			}
			return ctx.Load("strict/out", faas.Blob{Size: 1 << 20}, faas.KindFinal)
		}}
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	var loadTime time.Duration
	sys.Run(func() {
		res := sys.Platform.Invoke(&faas.Request{Function: fn})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		loadTime = res.Load
		// Relaxed object: cached, no RSDS presence at all yet.
		if _, ok := sys.RSDS.MetaOf("lazy/out"); ok {
			t.Error("relaxed write created an RSDS object eagerly")
		}
		if _, found := sys.KV.MasterOf("lazy/out"); !found {
			t.Error("relaxed output not cached")
		}
		// Strict object: shadow created immediately.
		if m, ok := sys.RSDS.MetaOf("strict/out"); !ok || m.LatestVersion == 0 {
			t.Errorf("strict write missing shadow: ok=%v meta=%+v", ok, m)
		}
	})
	// The relaxed write skipped the ~11 ms shadow: only one shadow PUT
	// in the whole Load phase.
	if loadTime > 20*time.Millisecond {
		t.Errorf("load=%v; relaxed write should cost ~1 shadow only", loadTime)
	}
	// Persistence still happens when the agent writes it back.
	sys2 := relaxed(2)
	sys2.Env.Go(func() {
		node := sys2.WorkerNodes[0]
		sys2.Platform.Invokers()[0].SetCacheGrant(1 << 30)
		sys2.KV.Write(node, "lazy/obj", kvstore.Synthetic(1<<20),
			&kvstore.State{Kind: kvstore.KindFinal, Dirty: true}, node)
		if out, _ := sys2.RC.persist(node, "lazy/obj", 0); out != pushed {
			t.Errorf("lazy write-back: outcome %d, want pushed", out)
		}
		if m, ok := sys2.RSDS.MetaOf("lazy/obj"); !ok || m.Size != 1<<20 {
			t.Errorf("lazy object not persisted: ok=%v meta=%+v", ok, m)
		}
		sys2.Env.Stop()
	})
	sys2.Env.Run()
}

func TestCrashRecoveryUnderOFC(t *testing.T) {
	// A worker (and its cache master) fail-stops; RAMCloud recovery
	// re-masters its objects from backups and reads keep working.
	sys := newSystem(3)
	sys.Run(func() {
		victim := sys.WorkerNodes[0]
		sys.Platform.Invokers()[0].SetCacheGrant(1 << 30)
		for _, w := range sys.WorkerNodes[1:] {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("cr/%d", i)
			if _, err := sys.KV.Write(victim, key, kvstore.Synthetic(2<<20),
				&kvstore.State{Kind: kvstore.KindInput}, victim); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		sys.KV.Crash(victim)
		n := sys.KV.RecoverNode(victim)
		if n != 6 {
			t.Errorf("recovered %d, want 6", n)
		}
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("cr/%d", i)
			if _, _, err := sys.KV.Read(sys.WorkerNodes[1], key); err != nil {
				t.Errorf("read %s after recovery: %v", key, err)
			}
		}
	})
}

func TestHorizontalScaleOut(t *testing.T) {
	// Horizontal elasticity: a worker added at runtime starts taking
	// placements and invocations.
	sys := newSystem(4)
	fn := imageFn("scaleout", 5*time.Millisecond)
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	sys.Run(func() {
		node := sys.Net.AddNode("worker-new").ID
		sys.KV.AddServer(node, 0)
		inv := sys.Platform.AddInvoker(node, 4<<30, sys.RC)
		agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())
		sys.Gov.Add(agent)
		// Force an invocation onto the new node; its sandbox's booked
		// waste feeds the new node's cache at placement time.
		sys.RSDS.Put(sys.CtrlNode, "img/new", kvstore.Synthetic(32<<10), nil, false)
		old := sys.Platform.Router
		sys.Platform.Router = pinTo{node: node}
		res := sys.Platform.Invoke(&faas.Request{Function: fn, InputKeys: []string{"img/new"},
			Args: map[string]float64{"sigma": 1}})
		sys.Platform.Router = old
		if res.Err != nil {
			t.Fatalf("invoke on new worker: %v", res.Err)
		}
		if inv.CacheGrant() == 0 {
			t.Fatal("new worker's cache grant is zero after placement")
		}
		if res.Node != node {
			t.Errorf("ran on %v, want new node %v", res.Node, node)
		}
		// The admission landed on the new node's cache.
		sys.Env.Sleep(time.Second)
		if m, ok := sys.KV.MasterOf("img/new"); !ok || m != node {
			t.Errorf("master=%v ok=%v, want new node", m, ok)
		}
	})
}

type pinTo struct{ node simnet.NodeID }

func (p pinTo) Route(req *faas.Request, all []*faas.Invoker, warm []*faas.Invoker) *faas.Invoker {
	for _, inv := range all {
		if inv.Node() == p.node {
			return inv
		}
	}
	return nil
}

func TestRCLibSizeCapBypass(t *testing.T) {
	sys := newSystem(5)
	sys.Platform.Advisor = advisorAlways{}
	fn := &faas.Function{Name: "big", Tenant: "t", MemoryBooked: 512 << 20, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			// 12 MB exceeds the 10 MB cache object cap: final write must
			// bypass the cache and go synchronously to the RSDS.
			return ctx.Load("big/out", faas.Blob{Size: 12 << 20}, faas.KindFinal)
		}}
	sys.Register(fn)
	sys.Run(func() {
		res := sys.Platform.Invoke(&faas.Request{Function: fn})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if _, found := sys.KV.MasterOf("big/out"); found {
			t.Error("oversized object admitted to the cache")
		}
		m, ok := sys.RSDS.MetaOf("big/out")
		if !ok || m.IsShadow() {
			t.Errorf("oversized object not synchronously persisted: %v %+v", ok, m)
		}
		if res.Load < 100*time.Millisecond {
			t.Errorf("bypass write cost %v, want full RSDS PUT", res.Load)
		}
	})
}

func TestRCLibReadMissNoAdmissionWhenNotBeneficial(t *testing.T) {
	sys := newSystem(6)
	fn := &faas.Function{Name: "nb", Tenant: "t", MemoryBooked: 512 << 20, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			_, err := ctx.Extract("nb/in")
			return err
		}}
	sys.Register(fn)
	// Advisor says caching is NOT beneficial.
	sys.Platform.Advisor = neverCacheAdvisor{}
	sys.Run(func() {
		sys.RSDS.Put(sys.CtrlNode, "nb/in", kvstore.Synthetic(64<<10), nil, false)
		res := sys.Platform.Invoke(&faas.Request{Function: fn, InputKeys: []string{"nb/in"}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sys.Env.Sleep(2 * time.Second)
		if _, found := sys.KV.MasterOf("nb/in"); found {
			t.Error("input admitted despite shouldCache=false")
		}
	})
}

type neverCacheAdvisor struct{}

func (neverCacheAdvisor) Advise(req *faas.Request) faas.Advice {
	return faas.Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
}

// TestPersistMissingOrOtherVersion: persist pushes nothing for a key
// the cache does not hold, nor for a copy of another version than the
// one it was asked for; both have vanished. The agent writes back only
// dirty objects: its sweep evicts a clean one. The RSDS sees no put.
func TestPersistMissingOrOtherVersion(t *testing.T) {
	sys := newSystem(7)
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())
	agent.pressure = memctl.PressureBrownout // no age floor
	sys.Env.Go(func() {
		node := inv.Node()
		sys.KV.SetMemoryLimit(node, 1<<30)
		sys.KV.Write(node, "clean", kvstore.Synthetic(1<<10),
			&kvstore.State{Kind: kvstore.KindFinal}, node)
		agent.periodicEviction()
		if _, cached := sys.KV.MasterOf("clean"); cached {
			t.Error("the sweep left a clean victim cached")
		}
		sys.KV.Write(node, "v3", kvstore.Synthetic(1<<10),
			&kvstore.State{Kind: kvstore.KindFinal, Dirty: true, PersistVersion: 3}, node)
		for _, c := range []struct {
			key     string
			version uint64
		}{{"absent", 0}, {"v3", 2}, {"v3", 0}} {
			if out, _ := sys.RC.persist(node, c.key, c.version); out != vanished {
				t.Errorf("persist(%s, %d): outcome %d, want vanished", c.key, c.version, out)
			}
		}
		if _, puts, _, _, _ := sys.RSDS.Stats(); puts != 0 {
			t.Errorf("%d RSDS puts, want none", puts)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

func TestTrainerPostMaturationDatasetPolicy(t *testing.T) {
	// §5.3.3: after maturation, only underpredictions and wildly-over
	// predictions re-enter the training set.
	env := sim.NewEnv(1)
	pred := NewPredictor()
	trainer := NewModelTrainer(pred, env)
	fn := &faas.Function{Name: "pol", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 300, 7))
	st := pred.state(fn)
	before := st.memData.Len()
	// Feed 50 samples the model already predicts exactly: none should
	// be added.
	for _, s := range synthSamples(pred.Schema(fn), 50, 7)[:50] {
		trainer.Observe(fn, &faas.Request{Function: fn}, s)
	}
	after := st.memData.Len()
	if grown := after - before; grown > 25 {
		t.Errorf("dataset grew by %d on well-predicted samples; §5.3.3 keeps it small", grown)
	}
}

// newChunkingSystem deploys newSystem's shape with Options.Chunking.
func newChunkingSystem(seed int64) *System {
	opts := testOptions(seed)
	opts.Chunking = true
	return NewSystem(opts)
}

func TestChunkingLargeFinalObject(t *testing.T) {
	sys := newChunkingSystem(10)
	sys.Platform.Advisor = advisorAlways{}
	const size = 25 << 20 // 25 MB > 10 MB cap → 4 chunks
	fn := &faas.Function{Name: "huge", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			return ctx.Load("huge/out", faas.Blob{Size: size}, faas.KindFinal)
		}}
	reader := &faas.Function{Name: "hr", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			blob, err := ctx.Extract("huge/out")
			if err != nil {
				return err
			}
			if blob.Size != size {
				t.Errorf("reassembled size %d, want %d", blob.Size, size)
			}
			return nil
		}}
	sys.Register(fn)
	sys.Register(reader)
	sys.Run(func() {
		res := sys.Platform.Invoke(&faas.Request{Function: fn})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		// The write avoided the synchronous 25 MB RSDS PUT (≈530 ms):
		// shadow (11 ms) + replicated stripe writes (~tens of ms).
		if res.Load > 150*time.Millisecond {
			t.Errorf("chunked load=%v, want shadow+stripe cost", res.Load)
		}
		// Chunks live in the cache until the persistor reassembles.
		if _, found := sys.KV.MasterOf("huge/out#0"); !found {
			t.Error("stripe 0 not cached")
		}
		// A reader served before persist completes sees the full object
		// from the stripes.
		before := sys.RC.Stats()
		r2 := sys.Platform.Invoke(&faas.Request{Function: reader}) // may race persist; both paths valid
		if r2.Err != nil {
			t.Fatal(r2.Err)
		}
		_ = before
		// After settling, the RSDS holds the whole payload and the
		// stripes are gone (§6.3 discard-after-write-back).
		sys.Env.Sleep(3 * time.Second)
		m, ok := sys.RSDS.MetaOf("huge/out")
		if !ok || m.IsShadow() || m.Size != size {
			t.Errorf("RSDS after persist: ok=%v meta=%+v", ok, m)
		}
		if _, found := sys.KV.MasterOf("huge/out#0"); found {
			t.Error("stripes not discarded after write-back")
		}
	})
}

func TestChunkingIntermediatesDiscardedWithPipeline(t *testing.T) {
	sys := newChunkingSystem(11)
	sys.Platform.Advisor = advisorAlways{}
	const size = 18 << 20
	w := &faas.Function{Name: "cw", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			return ctx.Load("cm/mid", faas.Blob{Size: size}, faas.KindIntermediate)
		}}
	r := &faas.Function{Name: "cr", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			blob, err := ctx.Extract("cm/mid")
			if err != nil {
				return err
			}
			if blob.Size != size {
				t.Errorf("intermediate size %d", blob.Size)
			}
			return nil
		}}
	sys.Register(w)
	sys.Register(r)
	sys.Run(func() {
		if res := sys.Platform.Invoke(&faas.Request{Function: w, Pipeline: "cp"}); res.Err != nil {
			t.Fatal(res.Err)
		}
		if res := sys.Platform.Invoke(&faas.Request{Function: r, Pipeline: "cp", FinalStage: true, InputKeys: []string{"cm/mid"}}); res.Err != nil {
			t.Fatal(res.Err)
		}
		// Pipeline done: stripes discarded, nothing in the RSDS.
		if _, found := sys.KV.MasterOf("cm/mid#0"); found {
			t.Error("chunked intermediate survived pipeline end")
		}
		if _, ok := sys.RSDS.MetaOf("cm/mid"); ok {
			t.Error("chunked intermediate persisted")
		}
	})
}

// TestChunkedWriteBackSurvivesBrownoutSweep: the cache agent's sweep
// must not evict the stripes of a striped write-back final before its
// Persistor runs. Under brownout the threshold policy has no age floor
// and condemns every object read fewer than five times, so a census
// that listed the fresh stripes would evict them, the Persistor would
// find the object gone, and the RSDS would keep only the shadow of an
// acknowledged write.
func TestChunkedWriteBackSurvivesBrownoutSweep(t *testing.T) {
	sys := newChunkingSystem(13)
	w := sys.WorkerNodes[0]
	var agent *CacheAgent
	for _, a := range sys.Agents() {
		if a.Node() == w {
			agent = a
		}
	}
	const key, size = "big/final", 24 << 20 // three 8 MB stripes
	var got objstore.Meta
	var gotSize int64
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		if err := sys.RC.Put(w, key, faas.Blob{Size: size}, faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, ok := sys.KV.MasterOf(key + "#0"); !ok {
			t.Fatalf("the write took no stripes: %+v", sys.RC.Stats())
		}
		agent.SetPressure(memctl.PressureBrownout)
		sys.Env.Sleep(3 * time.Second)
		blob, m, err := sys.RSDS.Get(sys.CtrlNode, key, true)
		if err != nil {
			t.Fatalf("external read: %v", err)
		}
		got, gotSize = m, blob.Size
	})
	if got.IsShadow() || gotSize != size {
		t.Errorf("external read after the sweep: %d bytes, meta %+v; want the %d-byte payload", gotSize, got, size)
	}
}

func TestStorageTriggersFireFunctions(t *testing.T) {
	sys := newSystem(12)
	fn := imageFn("ontrigger", 5*time.Millisecond)
	sys.Register(fn)
	sys.Trainer.Pretrain(fn, synthSamples(sys.Pred.Schema(fn), 300, 13))
	triggers := NewTriggers(sys, func(key string, size int64) map[string]float64 {
		return map[string]float64{"size": float64(size), "width": 800, "height": 600, "channels": 3}
	})
	triggers.Register("uploads/", fn, map[string]float64{"sigma": 1})
	features := map[string]map[string]float64{}
	sys.Platform.Advisor = featureLog{Advisor: sys.Platform.Advisor, fn: fn, seen: features}
	sys.Run(func() {
		// An external client uploads two objects under the watched
		// prefix and one elsewhere.
		sys.RSDS.Put(sys.StorageNode, "uploads/a.jpg", kvstore.Synthetic(32<<10), nil, true)
		sys.RSDS.Put(sys.StorageNode, "uploads/b.jpg", kvstore.Synthetic(64<<10), nil, true)
		sys.RSDS.Put(sys.StorageNode, "other/c.jpg", kvstore.Synthetic(64<<10), nil, true)
		sys.Env.Sleep(5 * time.Second)
	})
	if got := triggers.Fired(); got != 2 {
		t.Errorf("fired=%d, want 2", got)
	}
	// Each triggered invocation's request carries the features the
	// extractor read off its new object.
	for key, size := range map[string]float64{"uploads/a.jpg": 32 << 10, "uploads/b.jpg": 64 << 10} {
		if f := features[key]; f["size"] != size || f["width"] != 800 {
			t.Errorf("%s: request features %v", key, f)
		}
	}
	st := sys.Platform.Stats()
	// 2 triggered + their persistors, none failed.
	if st.Invocations < 2 || st.Failures != 0 {
		t.Errorf("invocations=%d failures=%d", st.Invocations, st.Failures)
	}
	acts := sys.Platform.Activations(0)
	seen := 0
	for _, a := range acts {
		if a.Function == "t/ontrigger" {
			seen++
		}
	}
	if seen != 2 {
		t.Errorf("triggered activations=%d, want 2", seen)
	}
}

// featureLog records the input features of fn's requests by input key
// before passing each on to Advisor.
type featureLog struct {
	faas.Advisor
	fn   *faas.Function
	seen map[string]map[string]float64
}

func (l featureLog) Advise(req *faas.Request) faas.Advice {
	if req.Function == l.fn {
		l.seen[req.InputKeys[0]] = req.InputFeatures
	}
	return l.Advisor.Advise(req)
}

// Property: write-back completeness — after any mix of cacheable final
// writes settles, every object is durably in the RSDS with its latest
// size and no shadow gap, and none linger in the cache.
func TestPropertyWriteBackCompleteness(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%12) + 2
		sys := newSystem(seed)
		sys.Platform.Advisor = advisorAlways{}
		keys := make([]string, n)
		sizes := make([]int64, n)
		fn := &faas.Function{Name: "wbp", Tenant: "t", MemoryBooked: 512 << 20, InputType: "none",
			Body: func(ctx *faas.Ctx) error {
				for i := range keys {
					if err := ctx.Load(keys[i], faas.Blob{Size: sizes[i]}, faas.KindFinal); err != nil {
						return err
					}
				}
				return nil
			}}
		sys.Register(fn)
		rng := rand.New(rand.NewSource(seed))
		for i := range keys {
			keys[i] = fmt.Sprintf("wbp/%d/%d", seed, i)
			sizes[i] = int64(rng.Intn(4<<20) + 1)
		}
		ok := true
		sys.Run(func() {
			res := sys.Platform.Invoke(&faas.Request{Function: fn})
			if res.Err != nil {
				ok = false
				return
			}
			sys.Env.Sleep(10 * time.Second) // settle all persistors
			for i := range keys {
				m, found := sys.RSDS.MetaOf(keys[i])
				if !found || m.IsShadow() || m.Size != sizes[i] {
					ok = false
				}
				if _, cached := sys.KV.MasterOf(keys[i]); cached {
					ok = false // final outputs are discarded post-persist
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}

	// A rewrite is one more input: every delay after the first ack at
	// which some persist could act on a version it did not read.
	const size1, size2 = 4 << 20, 1 << 20
	t.Run("Rewrite", func(t *testing.T) {
		var lost, staleReads []time.Duration
		for delay := time.Duration(0); delay < 1500*time.Millisecond; delay += 5 * time.Millisecond {
			sys := shadowSystem()
			w := sys.WorkerNodes[0]
			const key = "wbp/rewrite"
			var v2 uint64
			var read struct {
				blob faas.Blob
				meta objstore.Meta
				err  error
			}
			sys.Run(func() {
				for _, size := range []int64{size1, size2} {
					if err := sys.RC.Put(w, key, faas.Blob{Size: size}, faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
						t.Fatalf("put: %v", err)
					}
					if size == size1 {
						sys.Env.Sleep(delay)
					}
				}
				m, _ := sys.RSDS.MetaOf(key)
				v2 = m.LatestVersion
				sys.Env.Go(func() { read.blob, read.meta, read.err = sys.RSDS.Get(sys.StorageNode, key, true) })
				sys.Env.Sleep(10 * time.Second)
			})
			m, _ := sys.RSDS.MetaOf(key)
			if _, cached := sys.KV.MasterOf(key); m.IsShadow() || m.PersistedVersion != v2 || m.Size != size2 || cached {
				lost = append(lost, delay)
			}
			if read.err != nil || read.meta.PersistedVersion != v2 || read.blob.Size != size2 {
				staleReads = append(staleReads, delay)
			}
		}
		if len(lost) > 0 {
			t.Errorf("v2 not persisted (or still cached) after a rewrite %v after v1's ack, %d delays in all", lost[0], len(lost))
		}
		if len(staleReads) > 0 {
			t.Errorf("external read after v2's ack did not return v2 at delay %v, %d delays in all", staleReads[0], len(staleReads))
		}
	})

	relaxed := func() (*System, *CacheAgent) {
		opts := testOptions(1)
		opts.DisableCacheAgents = true
		opts.RelaxedPrefixes = []string{"lazy/"}
		sys := NewSystem(opts)
		inv := sys.Platform.Invokers()[0]
		inv.SetCacheGrant(64 << 20)
		return sys, NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())
	}
	put := func(t *testing.T, sys *System, key string, size int64) {
		w := sys.Platform.Invokers()[0].Node()
		if err := sys.RC.Put(w, key, faas.Blob{Size: size}, faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// A relaxed key rewritten while the sweep writes it back keeps its
	// newer copy dirty in the cache, for the next sweep to persist.
	t.Run("RelaxedRewrite", func(t *testing.T) {
		var lost []time.Duration
		for delay := time.Duration(0); delay < time.Second; delay += 5 * time.Millisecond {
			sys, agent := relaxed()
			const key = "lazy/rewrite"
			agent.pressure = memctl.PressureBrownout // no age floor
			sys.Run(func() {
				put(t, sys, key, size1)
				agent.periodicEviction()
				sys.Env.Sleep(delay)
				put(t, sys, key, size2)
				sys.Env.Sleep(10 * time.Second)
				agent.periodicEviction()
			})
			if m, _ := sys.RSDS.MetaOf(key); m.Size != size2 {
				lost = append(lost, delay)
			}
		}
		if len(lost) > 0 {
			t.Errorf("relaxed rewrite %v into the sweep's write-back lost, %d delays in all", lost[0], len(lost))
		}
	})
	// Two reclaims that fall short write a dirty object back once, and
	// the write-back leaves it clean.
	t.Run("TwoWriteBacks", func(t *testing.T) {
		sys, agent := relaxed()
		const key = "lazy/twice"
		sys.Run(func() {
			put(t, sys, key, 8<<20)
			agent.Reclaim(60 << 20)
			sys.Env.Sleep(2 * time.Second)
			if _, m, err := sys.RC.Backend().Read(agent.Node(), key); err != nil || m.State.Dirty {
				t.Errorf("after the write-back: err %v, state %+v; want a clean copy", err, m.State)
			}
			agent.Reclaim(60 << 20)
		})
		if _, puts, _, _, _ := sys.RSDS.Stats(); puts != 1 {
			t.Errorf("%d RSDS puts, want 1", puts)
		}
	})
}

func TestReclaimFailureSurfaces(t *testing.T) {
	// When even the cache cannot yield enough memory, the platform
	// reports ErrNoCapacity rather than wedging.
	opts := DefaultOptions()
	opts.Workers = 2
	opts.NodeCapacity = 256 << 20 // tiny nodes
	sys := NewSystem(opts)
	fn := &faas.Function{Name: "big", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error { return nil }}
	sys.Register(fn)
	var res *faas.Result
	sys.Run(func() {
		res = sys.Platform.Invoke(&faas.Request{Function: fn})
	})
	if !errors.Is(res.Err, faas.ErrNoCapacity) {
		t.Errorf("err=%v, want ErrNoCapacity", res.Err)
	}
}

func TestInvokeNilFunction(t *testing.T) {
	sys := newSystem(20)
	var res *faas.Result
	sys.Run(func() {
		res = sys.Platform.Invoke(&faas.Request{})
	})
	if !errors.Is(res.Err, faas.ErrUnregistered) {
		t.Errorf("err=%v", res.Err)
	}
}

func TestSlackAdaptsThroughPeriodicLoops(t *testing.T) {
	// Drive sandbox churn for several minutes with the agent's own
	// periodic loops running; the slack pool must grow beyond its
	// 100 MB initial value to cover the observed churn.
	sys, fn := churnSystem(21, 600<<20, 45*time.Second)
	agent := sys.Agents()[0]
	sys.Start()
	sys.Env.Go(func() {
		for i := 0; i < 10; i++ {
			if res := sys.Platform.Invoke(&faas.Request{Function: fn}); res.Err != nil {
				t.Fatalf("invoke: %v", res.Err)
			}
			sys.Env.Sleep(90 * time.Second) // the sandbox expires halfway through
		}
		if s := agent.Slack(); s <= 100<<20 {
			t.Errorf("slack=%dMB never adapted to 600MB churn", s>>20)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

func TestKeepAliveExpiryReturnsMemoryToPool(t *testing.T) {
	// After a sandbox expires, its booked waste vanishes and the next
	// rebalance shrinks the cache grant back toward zero.
	sys := newSystem(22)
	fn := &faas.Function{Name: "exp", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
		Body: func(ctx *faas.Ctx) error { return nil }}
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	sys.Start()
	sys.Env.Go(func() {
		res := sys.Platform.Invoke(&faas.Request{Function: fn})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		inv := invokerOf(sys, res.Node)
		grantWarm := inv.CacheGrant()
		if grantWarm < 700<<20 {
			t.Fatalf("grant=%dMB with a live 1GB-booked sandbox", grantWarm>>20)
		}
		// Past keep-alive + one grow tick, the grant collapses.
		sys.Env.Sleep(sys.Platform.Config().KeepAlive + 10*time.Second)
		if g := inv.CacheGrant(); g != 0 {
			t.Errorf("grant=%dMB after sandbox expiry, want 0", g>>20)
		}
		if inv.Reserved() != 0 {
			t.Errorf("reserved=%d after expiry", inv.Reserved())
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

func invokerOf(sys *System, node simnet.NodeID) *faas.Invoker {
	for _, inv := range sys.Platform.Invokers() {
		if inv.Node() == node {
			return inv
		}
	}
	return nil
}
