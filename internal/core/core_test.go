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
	pred := NewPredictor(DefaultPredictorConfig())
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
	pred := NewPredictor(DefaultPredictorConfig())
	fn := &faas.Function{Name: "f", Tenant: "t", InputType: "image", MemoryBooked: 1 << 30}
	adv := pred.Advise(&faas.Request{Function: fn})
	if adv.Use || adv.ShouldCache {
		t.Errorf("advice=%+v from blank model", adv)
	}
}

func TestPretrainMaturesImmediately(t *testing.T) {
	env := sim.NewEnv(1)
	pred := NewPredictor(DefaultPredictorConfig())
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
func newSystem(seed int64) *System {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Workers = 3
	opts.NodeCapacity = 4 << 30
	return NewSystem(opts)
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
		sys.RSDS.SetFeatures("img/1", map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3})
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

func TestExternalReadBlocksOnShadow(t *testing.T) {
	sys := newSystem(1)
	fn := &faas.Function{Name: "w", Tenant: "t", MemoryBooked: 256 << 20, InputType: "none",
		Body: func(ctx *faas.Ctx) error {
			return ctx.Load("obj/ext", faas.Blob{Size: 4 << 20}, faas.KindFinal)
		}}
	sys.Register(fn)
	sys.Platform.Advisor = advisorAlways{}
	sys.Run(func() {
		res := sys.Platform.Invoke(&faas.Request{Function: fn})
		if res.Err != nil {
			t.Fatalf("invoke: %v", res.Err)
		}
		// Immediately read externally: the webhook must block until
		// the persistor finishes, then hand back a consistent object.
		_, m, err := sys.RSDS.Get(sys.StorageNode, "obj/ext", true)
		if err != nil {
			t.Fatalf("external get: %v", err)
		}
		if m.IsShadow() {
			t.Error("external read observed a shadow object")
		}
	})
}

func TestExternalWriteInvalidatesCache(t *testing.T) {
	sys := newSystem(1)
	sys.Run(func() {
		sys.KV.Write(sys.WorkerNodes[0], "obj/k", kvstore.Synthetic(1<<20), map[string]string{"kind": "input"}, sys.WorkerNodes[0])
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
		sys.KV.Write(inv.Node(), "a", kvstore.Synthetic(8<<20), map[string]string{"kind": "input"}, inv.Node())
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
		sys.KV.SetMemoryLimit(inv.Node(), 1<<30)
		node := inv.Node()
		// cold: 1 access, idle.
		sys.KV.Write(node, "cold", kvstore.Synthetic(1<<20), map[string]string{"kind": "input"}, node)
		// hot: accessed 6 times.
		sys.KV.Write(node, "hot", kvstore.Synthetic(1<<20), map[string]string{"kind": "input"}, node)
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
		sys.KV.SetMemoryLimit(target, 1<<30)
		sys.Platform.Invokers()[2].SetCacheGrant(1 << 30)
		sys.KV.Write(target, "img/loc", kvstore.Synthetic(32<<10), map[string]string{"kind": "input"}, target)
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
		if agent.Slack() != cfg.InitialSlack {
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
	sys := newSystem(1)
	sys.RC.SetRelaxed("lazy/")
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
	sys2 := newSystem(2)
	sys2.RC.SetRelaxed("lazy/")
	sys2.Env.Go(func() {
		node := sys2.WorkerNodes[0]
		sys2.KV.SetMemoryLimit(node, 1<<30)
		sys2.Platform.Invokers()[0].SetCacheGrant(1 << 30)
		sys2.KV.Write(node, "lazy/obj", kvstore.Synthetic(1<<20),
			map[string]string{"kind": "final", "dirty": "1", "version": "0"}, node)
		if !sys2.RC.WriteBackNow(node, "lazy/obj") {
			t.Error("lazy write-back failed")
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
		sys.KV.SetMemoryLimit(victim, 1<<30)
		sys.Platform.Invokers()[0].SetCacheGrant(1 << 30)
		for _, w := range sys.WorkerNodes[1:] {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("cr/%d", i)
			if _, err := sys.KV.Write(victim, key, kvstore.Synthetic(2<<20),
				map[string]string{"kind": "input"}, victim); err != nil {
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

func TestWriteBackNowMissingOrClean(t *testing.T) {
	sys := newSystem(7)
	sys.Env.Go(func() {
		node := sys.WorkerNodes[0]
		if sys.RC.WriteBackNow(node, "absent") {
			t.Error("write-back of absent key succeeded")
		}
		sys.KV.SetMemoryLimit(node, 1<<30)
		sys.KV.Write(node, "clean", kvstore.Synthetic(1<<10),
			map[string]string{"kind": "input", "dirty": "0"}, node)
		if sys.RC.WriteBackNow(node, "clean") {
			t.Error("write-back of clean object succeeded")
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

func TestTrainerPostMaturationDatasetPolicy(t *testing.T) {
	// §5.3.3: after maturation, only underpredictions and wildly-over
	// predictions re-enter the training set.
	env := sim.NewEnv(1)
	pred := NewPredictor(DefaultPredictorConfig())
	trainer := NewModelTrainer(pred, env)
	fn := &faas.Function{Name: "pol", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 300, 7))
	st := pred.state(fn)
	st.mu.Lock()
	before := st.memData.Len()
	st.mu.Unlock()
	// Feed 50 samples the model already predicts exactly: none should
	// be added.
	for _, s := range synthSamples(pred.Schema(fn), 50, 7)[:50] {
		trainer.Observe(fn, &faas.Request{Function: fn}, s)
	}
	st.mu.Lock()
	after := st.memData.Len()
	st.mu.Unlock()
	if grown := after - before; grown > 25 {
		t.Errorf("dataset grew by %d on well-predicted samples; §5.3.3 keeps it small", grown)
	}
}

func TestModelPersistenceRoundTrip(t *testing.T) {
	sys := newSystem(8)
	fn := imageFn("persist", 10*time.Millisecond)
	sys.Register(fn)
	sys.Trainer.Pretrain(fn, synthSamples(sys.Pred.Schema(fn), 300, 9))
	req := &faas.Request{Function: fn,
		Args:          map[string]float64{"sigma": 2},
		InputFeatures: map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3}}
	want := sys.Pred.Advise(req)
	if !want.Use {
		t.Fatal("model not mature")
	}
	data, err := sys.Pred.ExportModel(fn)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh controller (new Predictor) imports the models and gives
	// identical advice.
	fresh := NewPredictor(DefaultPredictorConfig())
	if err := fresh.ImportModel(fn, data); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Advise(req); got != want {
		t.Errorf("advice after import %+v, want %+v", got, want)
	}
}

func TestModelImportRejectsWrongFunction(t *testing.T) {
	sys := newSystem(9)
	a := imageFn("fa", time.Millisecond)
	b := imageFn("fb", time.Millisecond)
	sys.Register(a)
	sys.Register(b)
	sys.Trainer.Pretrain(a, synthSamples(sys.Pred.Schema(a), 200, 1))
	data, err := sys.Pred.ExportModel(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pred.ImportModel(b, data); err == nil {
		t.Error("bundle for fa accepted by fb")
	}
}

func TestChunkingLargeFinalObject(t *testing.T) {
	sys := newSystem(10)
	sys.RC.EnableChunking()
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
	sys := newSystem(11)
	sys.RC.EnableChunking()
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

func TestStorageTriggersFireFunctions(t *testing.T) {
	sys := newSystem(12)
	fn := imageFn("ontrigger", 5*time.Millisecond)
	sys.Register(fn)
	sys.Trainer.Pretrain(fn, synthSamples(sys.Pred.Schema(fn), 300, 13))
	triggers := NewTriggers(sys, func(key string, size int64) map[string]float64 {
		return map[string]float64{"size": float64(size), "width": 800, "height": 600, "channels": 3}
	})
	triggers.Register("uploads/", fn, map[string]float64{"sigma": 1})
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
	// The triggered invocations produced outputs (registered under the
	// function's tenant) and feature sidecars for the new objects.
	if f := sys.RSDS.Features("uploads/a.jpg"); f == nil || f["width"] != 800 {
		t.Errorf("features not extracted: %v", f)
	}
	st := sys.Platform.Stats()
	// 2 triggered + their persistors.
	if st.Invocations < 2 {
		t.Errorf("invocations=%d", st.Invocations)
	}
	acts := sys.Platform.Activations(0)
	seen := 0
	for _, a := range acts {
		if a.Function == "t/ontrigger" && a.Error == "" {
			seen++
		}
	}
	if seen != 2 {
		t.Errorf("triggered activations=%d, want 2", seen)
	}
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
