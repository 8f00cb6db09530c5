package workload

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/objstore"
)

// PipelineResult aggregates the per-stage invocation results of one
// pipeline run.
type PipelineResult struct {
	Results []*faas.Result
	Err     error
}

// Phases sums the stage phase durations.
func (r *PipelineResult) Phases() (e, t, l time.Duration) {
	for _, res := range r.Results {
		e += res.Extract
		t += res.Transform
		l += res.Load
	}
	return
}

// Duration is wall-clock start of first stage to end of last.
func (r *PipelineResult) Duration() time.Duration {
	if len(r.Results) == 0 {
		return 0
	}
	return time.Duration(r.Results[len(r.Results)-1].End - r.Results[0].Start)
}

// stageModel couples a pipeline-stage function with its laws, for
// offline pretraining of its memory model.
type stageModel struct {
	fn    *faas.Function
	mem   func(f, args map[string]float64) int64
	tim   func(f, args map[string]float64) time.Duration
	outSz func(f, args map[string]float64) int64
	// inOps/outOps are the storage operations per invocation (1 when
	// zero); multi-object stages pay the per-request base that many
	// times.
	inOps, outOps int
	sample        func(rng *rand.Rand) map[string]float64 // typical input features
}

// Pipeline is a runnable multi-stage application.
type Pipeline struct {
	Name      string
	InputType string
	Funcs     []*faas.Function
	// Run executes the pipeline for one prepared input; id must be
	// unique per run.
	Run func(p *faas.Platform, in InputMeta, id string) *PipelineResult
	// Parts derives the pre-chunked dataset objects of an input, the
	// way the paper's analytics workloads store large inputs as many
	// small (cacheable) objects. Nil when the input is a single object.
	Parts  func(in InputMeta) []InputMeta
	stages []*stageModel
}

// StageInput writes the input (or its pre-chunked parts) through w.
func (pl *Pipeline) StageInput(w ObjectWriter, in InputMeta) {
	if pl.Parts == nil {
		w.WriteObject(in.Key, blobOf(in.Size), in.Features)
		return
	}
	for _, part := range pl.Parts(in) {
		w.WriteObject(part.Key, blobOf(part.Size), part.Features)
	}
}

// Pretrain matures the memory/benefit models of every stage function
// from n law-generated samples each.
func (pl *Pipeline) Pretrain(trainer *core.ModelTrainer, rsds objstore.Profile, n int, rng *rand.Rand) {
	for _, st := range pl.stages {
		schema := core.NewFeatureSchema(st.fn)
		samples := make([]core.Sample, 0, n)
		for i := 0; i < n; i++ {
			f := st.sample(rng)
			vals := make([]float64, 0, len(schema.Names()))
			for _, name := range schema.Names() {
				if v, ok := f[name]; ok {
					vals = append(vals, v)
				} else {
					vals = append(vals, missing())
				}
			}
			inOps, outOps := st.inOps, st.outOps
			if inOps < 1 {
				inOps = 1
			}
			if outOps < 1 {
				outOps = 1
			}
			samples = append(samples, core.Sample{
				Vals:         vals,
				PeakMem:      st.mem(f, f),
				Extract:      rsds.ReadTime(int64(inOps), int64(f["size"])*int64(inOps)),
				Transform:    st.tim(f, f),
				Load:         rsds.WriteTime(int64(outOps), st.outSz(f, f)),
				BenefitKnown: true,
			})
		}
		trainer.Pretrain(st.fn, samples)
	}
}

// loadObj writes an object and records its true features in the suite
// registry so downstream stages (and the Predictor) can see them.
func (su *Suite) loadObj(ctx *faas.Ctx, key string, size int64, kind faas.ObjKind, features map[string]float64) error {
	if features == nil {
		features = map[string]float64{}
	}
	features["size"] = float64(size)
	su.RegisterObject(key, features)
	return ctx.Load(key, faas.Blob{Size: size}, kind)
}

func ceilDiv(a, b int64) int {
	return int((a + b - 1) / b)
}

// lastSeg returns the final path segment of a key, for deriving
// per-part output names.
func lastSeg(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	return key
}

// keyOf returns parts joined, then n in decimal, then suffix, built in
// *buf, which it reuses from call to call: the key's string is its one
// allocation.
func keyOf(buf *[]byte, n int, suffix string, parts ...string) string {
	b := (*buf)[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, suffix...)
	*buf = b
	return string(b)
}

// blobOf builds a synthetic payload.
func blobOf(size int64) blobType { return blobType{Size: size} }

// stageReq builds a stage invocation request.
func stageReq(fn *faas.Function, id string, keys []string, features map[string]float64, final bool) *faas.Request {
	return &faas.Request{
		Function:      fn,
		Pipeline:      id,
		FinalStage:    final,
		InputKeys:     keys,
		InputFeatures: features,
	}
}

// ---------------------------------------------------------------------------
// MapReduce word count (as in Pocket/ExCamera-style analytics, §7).

const mrChunk = 1 * MB

// NewMapReduce builds the word-count pipeline for a tenant. The input
// text is stored pre-chunked (2 MB parts) in the data store, as the
// paper's analytics workloads do ("the corresponding input,
// intermediate and output data are actually split into many small
// objects", §3): mappers read one part each, the reducer folds the
// per-part counts into the final result.
func NewMapReduce(su *Suite, tenant string, profile TenantProfile, platformMax int64) *Pipeline {
	mapMem := func(f, _ map[string]float64) int64 { return 64*MB + int64(f["size"]*3) }
	mapTime := func(f, _ map[string]float64) time.Duration {
		return 10*time.Millisecond + time.Duration(f["size"]*float64(90*time.Nanosecond))
	}
	redMem := func(f, _ map[string]float64) int64 { return 80*MB + int64(f["chunks"])*MB }
	redTime := func(f, _ map[string]float64) time.Duration {
		return time.Duration(f["chunks"] * float64(40*time.Millisecond))
	}

	maxIn := int64(30) * MB
	book := func(m int64) int64 { return BookedMem(profile, m, platformMax) }
	mapFn := &faas.Function{Name: "mr_map", Tenant: tenant, InputType: "text",
		MemoryBooked: book(mapMem(map[string]float64{"size": float64(mrChunk)}, nil))}
	reduce := &faas.Function{Name: "mr_reduce", Tenant: tenant, InputType: "text", ArgNames: []string{"chunks"},
		MemoryBooked: book(redMem(map[string]float64{"chunks": float64(ceilDiv(maxIn, mrChunk))}, nil))}

	// Every part's counts are the same size, so they share one feature
	// map (loadObj sets its size, to the same value each time).
	countsF := map[string]float64{}
	mapFn.Body = func(ctx *faas.Ctx) error {
		in := ctx.InputKeys()[0]
		blob, err := ctx.Extract(in)
		if err != nil {
			return err
		}
		f := su.FeaturesOf(in, blob.Size)
		if err := ctx.Transform(mapTime(f, nil), mapMem(f, nil)); err != nil {
			return err
		}
		return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/"+lastSeg(in)+".counts", 64<<10, faas.KindIntermediate, countsF)
	}
	reduce.Body = func(ctx *faas.Ctx) error {
		for _, key := range ctx.InputKeys() {
			if _, err := ctx.Extract(key); err != nil {
				return err
			}
		}
		f := map[string]float64{"chunks": float64(len(ctx.InputKeys()))}
		if err := ctx.Transform(redTime(f, nil), redMem(f, nil)); err != nil {
			return err
		}
		return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/result", 128<<10, faas.KindFinal, map[string]float64{})
	}

	pl := &Pipeline{Name: "map_reduce", InputType: "text", Funcs: []*faas.Function{mapFn, reduce}}
	var kb []byte // key buffer
	pl.Parts = func(in InputMeta) []InputMeta {
		chunks := ceilDiv(in.Size, mrChunk)
		per := in.Size / int64(chunks)
		parts := make([]InputMeta, chunks)
		f := map[string]float64{"size": float64(per), "lines": float64(per) / 60} // every part's
		for i := range parts {
			parts[i] = InputMeta{Key: keyOf(&kb, i, "", in.Key, "/part/"), Size: per, Features: f}
		}
		return parts
	}
	pl.Run = func(p *faas.Platform, in InputMeta, id string) *PipelineResult {
		parts := pl.Parts(in)
		out := &PipelineResult{Results: make([]*faas.Result, 0, len(parts)+1)}
		inKeys := make([]string, len(parts))
		countKeys := make([]string, len(parts))
		for i, part := range parts {
			inKeys[i] = part.Key
			countKeys[i] = "pl/" + id + "/" + lastSeg(part.Key) + ".counts"
		}
		defer su.forget(countKeys)
		mapReqs := make([]*faas.Request, len(parts))
		for i, part := range parts {
			mapReqs[i] = stageReq(mapFn, id, inKeys[i:i+1:i+1], part.Features, false)
		}
		mapRes := p.InvokeParallel(mapReqs)
		out.Results = append(out.Results, mapRes...)
		for _, r := range mapRes {
			if r.Err != nil {
				out.Err = r.Err
				return out
			}
		}
		rr := stageReq(reduce, id, countKeys, map[string]float64{"size": 64 << 10}, true)
		rr.Args = map[string]float64{"chunks": float64(len(parts))}
		r3 := p.Invoke(rr)
		out.Results = append(out.Results, r3)
		out.Err = r3.Err
		return out
	}

	pl.stages = []*stageModel{
		{fn: mapFn, mem: mapMem, tim: mapTime,
			outSz:  func(_, _ map[string]float64) int64 { return 64 << 10 },
			sample: func(rng *rand.Rand) map[string]float64 { return genText(rng, mrChunk) }},
		{fn: reduce, mem: redMem, tim: redTime,
			outSz: func(_, _ map[string]float64) int64 { return 128 << 10 },
			sample: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"size": 64 << 10, "chunks": float64(1 + rng.Intn(15))}
			}},
	}
	return pl
}

// ---------------------------------------------------------------------------
// THIS — Thousand Island Scanner: distributed video processing.

const (
	thisChunkSecs    = 4.0
	thisFramesPerSeg = 8
)

// NewTHIS builds the video-processing pipeline. The video is stored
// pre-segmented (≈4 s segments); per segment, a decode function
// explodes it into sampled decoded frames (the large intermediates
// that make THIS storage-bound), a process function transforms each
// segment's frames, and a merge stage concatenates everything into the
// final video.
func NewTHIS(su *Suite, tenant string, profile TenantProfile, platformMax int64) *Pipeline {
	frame := func(f map[string]float64) float64 {
		w, h := f["width"], f["height"]
		if w == 0 {
			w, h = 1280, 720
		}
		return w * h * 3
	}
	decMem := func(f, _ map[string]float64) int64 { return 130*MB + int64(frame(f)*8) }
	decTime := func(f, _ map[string]float64) time.Duration {
		d := f["duration"]
		if d == 0 {
			d = thisChunkSecs
		}
		return 50*time.Millisecond + time.Duration(d*float64(150*time.Millisecond))
	}
	prMem := func(f, _ map[string]float64) int64 { return 100*MB + int64(frame(f)*12) }
	prTime := func(f, _ map[string]float64) time.Duration {
		d := f["duration"]
		if d == 0 {
			d = thisChunkSecs
		}
		return 50*time.Millisecond + time.Duration(d*float64(200*time.Millisecond))
	}
	mgMem := func(f, _ map[string]float64) int64 { return 150*MB + int64(f["size"]/2) }
	mgTime := func(f, _ map[string]float64) time.Duration {
		return 100*time.Millisecond + time.Duration(f["duration"]*float64(25*time.Millisecond))
	}

	book := func(m int64) int64 { return BookedMem(profile, m, platformMax) }
	f1080 := map[string]float64{"width": 1920, "height": 1080, "duration": 600, "size": 300e6}
	decode := &faas.Function{Name: "this_decode", Tenant: tenant, InputType: "video", MemoryBooked: book(decMem(f1080, nil))}
	process := &faas.Function{Name: "this_process", Tenant: tenant, InputType: "video", MemoryBooked: book(prMem(f1080, nil))}
	merge := &faas.Function{Name: "this_merge", Tenant: tenant, InputType: "video", MemoryBooked: book(mgMem(f1080, nil))}

	var kb []byte // key buffer
	// frameKey is the key of segment seg's frame j in run id.
	frameKey := func(id, seg string, j int, suffix string) string {
		return keyOf(&kb, j, suffix, "pl/", id, "/", seg, "/f")
	}
	decode.Body = func(ctx *faas.Ctx) error {
		in := ctx.InputKeys()[0]
		blob, err := ctx.Extract(in)
		if err != nil {
			return err
		}
		f := su.FeaturesOf(in, blob.Size)
		if err := ctx.Transform(decTime(f, nil), decMem(f, nil)); err != nil {
			return err
		}
		per := blob.Size / thisFramesPerSeg
		cf := map[string]float64{"width": f["width"], "height": f["height"]}
		for j := 0; j < thisFramesPerSeg; j++ {
			key := frameKey(ctx.PipelineID(), lastSeg(in), j, "")
			if err := su.loadObj(ctx, key, per, faas.KindIntermediate, cf); err != nil {
				return err
			}
		}
		return nil
	}
	process.Body = func(ctx *faas.Ctx) error {
		var total int64
		var f map[string]float64
		for _, key := range ctx.InputKeys() {
			blob, err := ctx.Extract(key)
			if err != nil {
				return err
			}
			total += blob.Size
			f = su.FeaturesOf(key, blob.Size)
		}
		f = map[string]float64{"width": f["width"], "height": f["height"], "duration": thisChunkSecs}
		if err := ctx.Transform(prTime(f, nil), prMem(f, nil)); err != nil {
			return err
		}
		per := int64(float64(total) * 0.9 / thisFramesPerSeg)
		for j := range ctx.InputKeys() {
			key := ctx.InputKeys()[j] + ".out"
			if err := su.loadObj(ctx, key, per, faas.KindIntermediate, f); err != nil {
				return err
			}
		}
		return nil
	}
	merge.Body = func(ctx *faas.Ctx) error {
		var total int64
		for _, key := range ctx.InputKeys() {
			blob, err := ctx.Extract(key)
			if err != nil {
				return err
			}
			total += blob.Size
		}
		segs := float64(len(ctx.InputKeys())) / thisFramesPerSeg
		f := map[string]float64{"size": float64(total), "duration": segs * thisChunkSecs}
		if err := ctx.Transform(mgTime(f, nil), mgMem(f, nil)); err != nil {
			return err
		}
		return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/video", int64(float64(total)*0.95), faas.KindFinal, nil)
	}

	pl := &Pipeline{Name: "THIS", InputType: "video", Funcs: []*faas.Function{decode, process, merge}}
	pl.Parts = func(in InputMeta) []InputMeta {
		chunks := int(math.Ceil(in.Features["duration"] / thisChunkSecs))
		if chunks < 1 {
			chunks = 1
		}
		per := in.Size / int64(chunks)
		parts := make([]InputMeta, chunks)
		f := map[string]float64{ // every segment's
			"size": float64(per), "width": in.Features["width"], "height": in.Features["height"],
			"fps": in.Features["fps"], "duration": thisChunkSecs,
		}
		for i := range parts {
			parts[i] = InputMeta{Key: keyOf(&kb, i, "", in.Key, "/seg/"), Size: per, Features: f}
		}
		return parts
	}
	pl.Run = func(p *faas.Platform, in InputMeta, id string) *PipelineResult {
		parts := pl.Parts(in)
		out := &PipelineResult{Results: make([]*faas.Result, 0, 2*len(parts)+1)}
		// Every key the run names, built once: each segment's input, its
		// decoded frames (process's inputs) and their processed outputs
		// (merge's), which the registry forgets when the run ends.
		inKeys := make([]string, len(parts))
		frames := make([]string, len(parts)*thisFramesPerSeg)
		outKeys := make([]string, len(frames))
		for i, part := range parts {
			inKeys[i] = part.Key
			for j := 0; j < thisFramesPerSeg; j++ {
				frames[i*thisFramesPerSeg+j] = frameKey(id, lastSeg(part.Key), j, "")
				outKeys[i*thisFramesPerSeg+j] = frameKey(id, lastSeg(part.Key), j, ".out")
			}
		}
		defer su.forget(frames)
		defer su.forget(outKeys)
		// Stage 1: decode each segment into frames.
		decReqs := make([]*faas.Request, len(parts))
		for i, part := range parts {
			decReqs[i] = stageReq(decode, id, inKeys[i:i+1:i+1], part.Features, false)
		}
		decRes := p.InvokeParallel(decReqs)
		out.Results = append(out.Results, decRes...)
		for _, r := range decRes {
			if r.Err != nil {
				out.Err = r.Err
				return out
			}
		}
		// Stage 2: process each segment's frames. Parts cuts segments of
		// one size, so their requests share one feature map.
		pf := map[string]float64{"size": float64(parts[0].Size) / thisFramesPerSeg, "width": in.Features["width"],
			"height": in.Features["height"], "duration": thisChunkSecs}
		prReqs := make([]*faas.Request, len(parts))
		for i := range parts {
			keys := frames[i*thisFramesPerSeg : (i+1)*thisFramesPerSeg : (i+1)*thisFramesPerSeg]
			prReqs[i] = stageReq(process, id, keys, pf, false)
		}
		prRes := p.InvokeParallel(prReqs)
		out.Results = append(out.Results, prRes...)
		for _, r := range prRes {
			if r.Err != nil {
				out.Err = r.Err
				return out
			}
		}
		// Stage 3: merge all processed frames.
		mf := map[string]float64{"size": float64(in.Size) * 0.9, "width": in.Features["width"],
			"height": in.Features["height"], "duration": in.Features["duration"]}
		r3 := p.Invoke(stageReq(merge, id, outKeys, mf, true))
		out.Results = append(out.Results, r3)
		out.Err = r3.Err
		return out
	}

	pl.stages = []*stageModel{
		{fn: decode, mem: decMem, tim: decTime,
			outSz:  func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.9) },
			outOps: thisFramesPerSeg,
			sample: func(rng *rand.Rand) map[string]float64 {
				f := genVideo(rng, int64(1+rng.Intn(8))*MB)
				f["duration"] = thisChunkSecs
				return f
			}},
		{fn: process, mem: prMem, tim: prTime,
			outSz:  func(f, _ map[string]float64) int64 { return int64(f["size"] * float64(thisFramesPerSeg) * 0.9) },
			inOps:  thisFramesPerSeg,
			outOps: thisFramesPerSeg,
			sample: func(rng *rand.Rand) map[string]float64 {
				f := genVideo(rng, int64(1+rng.Intn(4))*MB/2)
				f["duration"] = thisChunkSecs
				return f
			}},
		{fn: merge, mem: mgMem, tim: mgTime,
			outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.95) },
			inOps: 240,
			sample: func(rng *rand.Rand) map[string]float64 {
				size := float64(int64(50+rng.Intn(250)) * MB)
				return map[string]float64{"size": size, "duration": size * 8 / 4e6}
			}},
	}
	return pl
}
