package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/mltree"
	"ofc/internal/objstore"
	"ofc/internal/sim"
)

func TestSpecsCountAndShape(t *testing.T) {
	specs := Specs()
	if len(specs) != 19 {
		t.Fatalf("specs=%d, want 19", len(specs))
	}
	types := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for _, s := range specs {
		types[s.InputType]++
		if s.Booked <= 0 {
			t.Errorf("%s: no booked memory", s.Name)
		}
		f := GenFeatures(rng, s.InputType, 64<<10)
		args := s.GenArgs(rng)
		mem := s.Mem(f, args)
		if mem <= 0 || mem > 2<<30 {
			t.Errorf("%s: mem=%d out of range", s.Name, mem)
		}
		if s.Time(f, args) <= 0 {
			t.Errorf("%s: non-positive time", s.Name)
		}
		if s.OutSize(f, args) < 0 {
			t.Errorf("%s: negative output", s.Name)
		}
	}
	if types["image"] < 10 || types["audio"] < 3 || types["video"] < 3 || types["text"] < 2 {
		t.Errorf("type mix=%v", types)
	}
}

func TestMemoryLawsAreInputDependent(t *testing.T) {
	// Figure 2's point: same function, wildly different memory across
	// inputs and arguments.
	rng := rand.New(rand.NewSource(2))
	spec := SpecByName("wand_blur")
	small := GenFeatures(rng, "image", 16<<10)
	large := GenFeatures(rng, "image", 6<<20)
	lo := map[string]float64{"sigma": 0.5}
	hi := map[string]float64{"sigma": 6}
	if spec.Mem(large, lo) < 2*spec.Mem(small, lo) {
		t.Error("memory not input-size sensitive")
	}
	if float64(spec.Mem(large, hi)) < 1.2*float64(spec.Mem(large, lo)) {
		t.Error("memory not argument sensitive")
	}
}

func TestNoiseIsDeterministicAndBounded(t *testing.T) {
	spec := SpecByName("wand_edge")
	f := GenFeatures(rand.New(rand.NewSource(3)), "image", 64<<10)
	args := map[string]float64{"radius": 2}
	m1 := spec.PeakMem("k1", f, args)
	m2 := spec.PeakMem("k1", f, args)
	if m1 != m2 {
		t.Error("noise not deterministic per key")
	}
	base := spec.Mem(f, args)
	if m1 < int64(float64(base)*0.96) || m1 > int64(float64(base)*1.04) {
		t.Errorf("noise out of ±3%%: base=%d got=%d", base, m1)
	}
}

func TestInputPoolGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := NewInputPool(rng, "image", "img", []int64{1 << 10, 64 << 10, 128 << 10}, 5)
	if len(pool.Inputs) != 15 {
		t.Fatalf("pool=%d", len(pool.Inputs))
	}
	seen := map[string]bool{}
	for _, in := range pool.Inputs {
		if seen[in.Key] {
			t.Errorf("duplicate key %s", in.Key)
		}
		seen[in.Key] = true
		if in.Features["width"] <= 0 || in.Features["height"] <= 0 {
			t.Errorf("bad features %v", in.Features)
		}
		if in.Features["size"] != float64(in.Size) {
			t.Errorf("size mismatch")
		}
	}
}

func TestFeatureGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := GenFeatures(rng, "audio", 1<<20)
	if a["duration"] <= 0 || a["bitrate"] <= 0 {
		t.Errorf("audio=%v", a)
	}
	v := GenFeatures(rng, "video", 50<<20)
	if v["duration"] <= 0 || v["fps"] <= 0 || v["width"] <= 0 {
		t.Errorf("video=%v", v)
	}
	// 50 MB at the implied bitrate should be minutes, not hours.
	if v["duration"] > 3600 {
		t.Errorf("video duration %v s implausible", v["duration"])
	}
	x := GenFeatures(rng, "text", 1<<20)
	if x["lines"] <= 0 {
		t.Errorf("text=%v", x)
	}
}

func TestBookedMemProfiles(t *testing.T) {
	maxUsed := int64(300 << 20)
	platformMax := int64(2 << 30)
	if b := BookedMem(ProfileNaive, maxUsed, platformMax); b != platformMax {
		t.Errorf("naive=%d", b)
	}
	if b := BookedMem(ProfileAdvanced, maxUsed, platformMax); b != maxUsed {
		t.Errorf("advanced=%d", b)
	}
	if b := BookedMem(ProfileNormal, maxUsed, platformMax); b != int64(float64(maxUsed)*1.7) {
		t.Errorf("normal=%d", b)
	}
}

func TestTrainingSamplesLearnable(t *testing.T) {
	// The offline samples must make a J48 model pass the maturation
	// criteria for every one of the 19 functions — that is what the
	// paper's Table 1 accuracies rest on.
	rng := rand.New(rand.NewSource(6))
	su := NewSuite()
	iv := core.DefaultIntervals()
	for _, spec := range Specs() {
		sizes := sizesFor(spec.InputType)
		pool := NewInputPool(rng, spec.InputType, "tr/"+spec.Name, sizes, 4)
		fn := su.Build(spec, "t", 0)
		samples := TrainingSamples(spec, fn, pool, 400, rng, objstore.SwiftProfile())
		schema := core.NewFeatureSchema(fn)
		d := mltree.NewDataset(schema.Attributes(), iv.ClassNames())
		for _, s := range samples {
			d.Add(s.Vals, iv.ClassOf(s.PeakMem))
		}
		conf := mltree.CrossValidate(mltree.NewJ48(), d, 5, 1)
		if eo := conf.EOAccuracy(); eo < 0.85 {
			t.Errorf("%s: EO=%.3f below maturation ballpark", spec.Name, eo)
		}
	}
}

func sizesFor(inputType string) []int64 {
	switch inputType {
	case "image":
		return []int64{1 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	case "audio":
		return []int64{256 << 10, 1 << 20, 4 << 20}
	case "video":
		return []int64{2 << 20, 5 << 20, 8 << 20}
	default:
		return []int64{1 << 20, 5 << 20, 10 << 20}
	}
}

// PropertyMemLawsPositiveAndBounded: all specs produce sane memory for
// any pool input.
func TestPropertyMemLaws(t *testing.T) {
	specs := Specs()
	f := func(seed int64, sizeK uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(sizeK%2048+1) << 10
		for _, s := range specs {
			feat := GenFeatures(rng, s.InputType, size)
			args := s.GenArgs(rng)
			m := s.PeakMem("k", feat, args)
			if m < 32<<20 || m > 4<<30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Full-stack test: OFC system running all four pipelines once.
func TestPipelinesRunOnOFC(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.NodeCapacity = 8 << 30
	sys := core.NewSystem(opts)
	su := NewSuite()
	rng := rand.New(rand.NewSource(7))

	pls := []*Pipeline{
		NewMapReduce(su, "t1", ProfileNormal, 2<<30),
		NewTHIS(su, "t2", ProfileNormal, 2<<30),
		NewIMAD(su, "t3", ProfileNormal, 2<<30),
		NewImageProcessing(su, "t4", ProfileNormal, 2<<30),
	}
	names := []string{"map_reduce", "THIS", "IMAD", "ImageProcessing"}
	pools := []*InputPool{
		NewInputPool(rng, "text", "mr", []int64{5 << 20}, 2),
		NewInputPool(rng, "video", "vid", []int64{20 << 20}, 2),
		NewInputPool(rng, "none", "app", []int64{4 << 20}, 2),
		NewInputPool(rng, "image", "img", []int64{64 << 10}, 2),
	}
	for _, pl := range pls {
		for _, fn := range pl.Funcs {
			sys.Register(fn)
		}
		pl.Pretrain(sys.Trainer, sys.RSDS.Profile(), 200, rng)
	}
	results := map[string]*PipelineResult{}
	sys.Run(func() {
		w := RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode}
		for i, pl := range pls {
			for _, in := range pools[i].Inputs {
				pl.StageInput(w, in)
			}
		}
		for i, pl := range pls {
			in := pools[i].Pick()
			results[names[i]] = pl.Run(sys.Platform, in, "test-"+names[i])
		}
	})
	for name, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v", name, res.Err)
		}
		if len(res.Results) < 3 {
			t.Errorf("%s: only %d stage results", name, len(res.Results))
		}
		if res.Duration() <= 0 {
			t.Errorf("%s: zero duration", name)
		}
	}
	// Intermediates must be gone from the cache after all pipelines
	// completed (plus settle time).
	for _, key := range []string{"pl/test-map_reduce/part/0.counts", "pl/test-THIS/seg/0.out"} {
		if _, found := sys.KV.MasterOf(key); found {
			t.Errorf("%s still cached after pipeline end", key)
		}
	}
}

func TestFaaSLoadInjector(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 3
	opts.NodeCapacity = 8 << 30
	sys := core.NewSystem(opts)
	su := NewSuite()
	rng := rand.New(rand.NewSource(8))

	spec := SpecByName("wand_sepia")
	fn := su.Build(spec, "tenant0", 0)
	sys.Register(fn)
	pool := NewInputPool(rng, "image", "sep", []int64{16 << 10, 64 << 10}, 4)
	fl := NewFaaSLoad(sys.Env, sys.Platform, 9)
	fl.AddFunctionTenant("tenant0", spec, fn, pool, 30*time.Second)

	sys.Env.SetHorizon(12 * time.Minute)
	sys.Start()
	sys.Env.Go(func() {
		pool.Stage(RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode})
		fl.Start(10 * time.Minute)
	})
	sys.Env.Run()

	reps := fl.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports=%d", len(reps))
	}
	r := reps[0]
	// Exponential with 30s mean over 10 min ≈ 20 invocations.
	if r.Invocations < 8 || r.Invocations > 40 {
		t.Errorf("invocations=%d, want ≈20", r.Invocations)
	}
	if r.Failures != 0 {
		t.Errorf("failures=%d", r.Failures)
	}
	if r.TotalExec <= 0 || r.TotalT <= 0 {
		t.Errorf("report=%+v", r)
	}
}

// A pipeline tenant's report sums its stages: every stage's phases and
// bytes count toward the one pipeline invocation.
func TestFaaSLoadPipelineTenant(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 3
	opts.NodeCapacity = 8 << 30
	sys := core.NewSystem(opts)
	su := NewSuite()
	rng := rand.New(rand.NewSource(10))

	pl := NewImageProcessing(su, "tenant0", ProfileNormal, 2<<30)
	for _, fn := range pl.Funcs {
		sys.Register(fn)
	}
	pool := NewInputPool(rng, "image", "ip", []int64{64 << 10}, 2)
	fl := NewFaaSLoad(sys.Env, sys.Platform, 11)
	fl.AddPipelineTenant("tenant0", pl, pool, 30*time.Second)

	sys.Env.SetHorizon(7 * time.Minute)
	sys.Start()
	sys.Env.Go(func() {
		w := RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode}
		for _, in := range pool.Inputs {
			pl.StageInput(w, in)
		}
		fl.Start(5 * time.Minute)
	})
	sys.Env.Run()

	reps := fl.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports=%d", len(reps))
	}
	r := reps[0]
	if r.Invocations == 0 || r.Failures != 0 {
		t.Fatalf("report=%+v, want invocations and no failure", r)
	}
	if r.TotalE <= 0 || r.TotalT <= 0 || r.TotalL <= 0 {
		t.Errorf("report=%+v, want every phase summed", r)
	}
	if r.ColdStarts == 0 {
		t.Errorf("report=%+v, want the first run's cold starts", r)
	}
}

func TestSuiteBuildBodyRoundTrip(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 2
	sys := core.NewSystem(opts)
	su := NewSuite()
	rng := rand.New(rand.NewSource(10))
	spec := SpecByName("wand_rotate")
	fn := su.Build(spec, "t", 0)
	sys.Register(fn)
	pool := NewInputPool(rng, "image", "rot", []int64{32 << 10}, 2)
	var res *faas.Result
	sys.Run(func() {
		pool.Stage(RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode})
		in := pool.Pick()
		res = sys.Platform.Invoke(NewRequest(fn, spec, in, map[string]float64{"angle": 90}))
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := spec.PeakMem(pool.Inputs[0].Key, pool.Inputs[0].Features, map[string]float64{"angle": 90})
	_ = want // peak depends on which input Pick chose; just sanity-check range
	if res.PeakMem < 32<<20 {
		t.Errorf("peak=%d", res.PeakMem)
	}
	if res.BytesOut <= 0 {
		t.Error("no output written")
	}
}

func TestMaxMemCoversPool(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := SpecByName("wand_blur")
	pool := NewInputPool(rng, "image", "mm", []int64{16 << 10, 128 << 10}, 3)
	max := spec.MaxMem(pool, rng)
	for _, in := range pool.Inputs {
		for i := 0; i < 4; i++ {
			args := spec.GenArgs(rng)
			if m := spec.PeakMem(in.Key, in.Features, args); m > max+max/10 {
				t.Errorf("MaxMem %d exceeded by %d", max, m)
			}
		}
	}
}

func TestKVBlobAlias(t *testing.T) {
	if b := blobOf(1); b != kvstore.Synthetic(1) {
		t.Error("alias broken")
	}
}

func TestLoadTraceCSV(t *testing.T) {
	in := "# a trace\n0.5\n\n2.0\n1.25\n"
	offsets, err := LoadTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{500 * time.Millisecond, 2 * time.Second, 1250 * time.Millisecond}
	if len(offsets) != 3 {
		t.Fatalf("offsets=%v", offsets)
	}
	for i := range want {
		if offsets[i] != want[i] {
			t.Errorf("offsets=%v", offsets)
		}
	}
	if _, err := LoadTraceCSV(strings.NewReader("abc\n")); err == nil {
		t.Error("no error for garbage")
	}
	if _, err := LoadTraceCSV(strings.NewReader("-1\n")); err == nil {
		t.Error("no error for negative offset")
	}
}

func TestTraceTenantFiresAtOffsets(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 2
	sys := core.NewSystem(opts)
	su := NewSuite()
	rng := rand.New(rand.NewSource(30))
	spec := SpecByName("wand_crop")
	fn := su.Build(spec, "trace", 0)
	sys.Register(fn)
	pool := NewInputPool(rng, "image", "tr", []int64{16 << 10}, 2)
	fl := NewFaaSLoad(sys.Env, sys.Platform, 31)
	fl.AddTraceTenant("trace", spec, fn, pool,
		[]time.Duration{10 * time.Second, 30 * time.Second, 70 * time.Second, 3 * time.Hour /*beyond window*/})
	sys.Env.SetHorizon(3 * time.Minute)
	sys.Start()
	sys.Env.Go(func() {
		pool.Stage(RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode})
		fl.Start(2 * time.Minute)
	})
	sys.Env.Run()
	rep := fl.Reports()[0]
	if rep.Invocations != 3 {
		t.Errorf("invocations=%d, want 3 (the 3h offset exceeds the window)", rep.Invocations)
	}
	if rep.Failures != 0 {
		t.Errorf("failures=%d", rep.Failures)
	}
}

// lowballAdvisor sizes every sandbox at the platform's floor, below any
// catalogue function's peak, so every invocation is OOM-killed once and
// retried at its booked memory.
type lowballAdvisor struct{}

func (lowballAdvisor) Advise(*faas.Request) faas.Advice { return faas.Advice{Mem: 1, Use: true} }

// TestTraceTenantCountsRetries: a trace tenant's invocation that is
// OOM-killed once and retried counts as one invocation that did not
// fail, as a function tenant's does.
func TestTraceTenantCountsRetries(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 2
	sys := core.NewSystem(opts)
	sys.Platform.Advisor = lowballAdvisor{}
	su := NewSuite()
	rng := rand.New(rand.NewSource(32))
	spec := SpecByName("wand_crop")
	fn := su.Build(spec, "trace", 0)
	sys.Register(fn)
	pool := NewInputPool(rng, "image", "oom", []int64{16 << 10}, 1)
	fl := NewFaaSLoad(sys.Env, sys.Platform, 33)
	fl.AddTraceTenant("trace", spec, fn, pool, []time.Duration{10 * time.Second})
	sys.Env.SetHorizon(time.Minute)
	sys.Start()
	sys.Env.Go(func() {
		pool.Stage(RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode})
		fl.Start(30 * time.Second)
	})
	sys.Env.Run()
	rep := fl.Reports()[0]
	if rep.Invocations != 1 || rep.Failures != 0 {
		t.Fatalf("invocations=%d failures=%d, want 1 and 0", rep.Invocations, rep.Failures)
	}
	if st := sys.Platform.Stats(); st.Retries != 1 {
		t.Errorf("platform retries=%d, want 1", st.Retries)
	}
}

// Table-driven law sanity for every one of the 19 functions: memory
// and time grow (weakly) with input size; outputs are bounded; args
// come from the declared names.
func TestEverySpecLawSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			small := GenFeatures(rng, spec.InputType, 8<<10)
			// Scale the size-derived features while holding content
			// features (resolution, bitrate, channels) fixed —
			// memory may legitimately be independent of byte size
			// (Figure 2's point), but must not shrink as the same
			// content grows.
			big := map[string]float64{}
			for k, v := range small {
				big[k] = v
			}
			big["size"] = small["size"] * 256
			if d, ok := small["duration"]; ok {
				big["duration"] = d * 256
			}
			if l, ok := small["lines"]; ok {
				big["lines"] = l * 256
			}
			args := spec.GenArgs(rng)
			for name := range args {
				found := false
				for _, declared := range spec.ArgNames {
					if declared == name {
						found = true
					}
				}
				if !found {
					t.Errorf("GenArgs produced undeclared arg %q", name)
				}
			}
			if spec.Mem(big, args) < spec.Mem(small, args) {
				t.Errorf("memory not monotone in input size")
			}
			if spec.Time(big, args) < spec.Time(small, args) {
				t.Errorf("time not monotone in input size")
			}
			if out := spec.OutSize(big, args); out < 0 || out > 20*int64(big["size"]) {
				t.Errorf("output size %d implausible for input %v", out, big["size"])
			}
			// Booked memory covers the law over the plausible grid.
			sizes := sizesFor(spec.InputType)
			pool := NewInputPool(rng, spec.InputType, "sanity/"+spec.Name, sizes, 3)
			if max := spec.MaxMem(pool, rng); max > 2*spec.Booked {
				t.Errorf("max memory %dMB far above default booking %dMB", max>>20, spec.Booked>>20)
			}
		})
	}
}

// Every spec must be learnable enough to mature online within 600
// law-generated invocations — the §5.3 premise that makes OFC usable.
func TestEverySpecMaturesOnline(t *testing.T) {
	for si, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			env := sim.NewEnv(int64(si))
			pred := core.NewPredictor()
			trainer := core.NewModelTrainer(pred, env)
			rng := rand.New(rand.NewSource(int64(si) + 100))
			su := NewSuite()
			fn := su.Build(spec, "mat", 0)
			pool := NewInputPool(rng, spec.InputType, "mat/"+spec.Name, sizesFor(spec.InputType), 4)
			samples := TrainingSamples(spec, fn, pool, 700, rng, objstore.SwiftProfile())
			for i, s := range samples {
				trainer.Observe(fn, &faas.Request{Function: fn}, s)
				if pred.Mature(fn) {
					t.Logf("matured at %d", i+1)
					return
				}
			}
			t.Errorf("%s did not mature in 700 invocations", spec.Name)
		})
	}
}
