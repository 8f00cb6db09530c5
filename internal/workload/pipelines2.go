package workload

import (
	"fmt"
	"math/rand"
	"time"

	"ofc/internal/faas"
)

// ---------------------------------------------------------------------------
// IMAD — Illegitimate Mobile App Detector (Wapet et al.), reimplemented
// as a sequence of serverless functions (§7, footnote 4): unpack the
// app, analyze icons and strings in parallel, produce a verdict.

// NewIMAD builds the app-vetting pipeline.
func NewIMAD(su *Suite, tenant string, profile TenantProfile, platformMax int64) *Pipeline {
	unpMem := func(f, _ map[string]float64) int64 { return 120*MB + int64(f["size"]*6) }
	unpTime := func(f, _ map[string]float64) time.Duration {
		return 50*time.Millisecond + time.Duration(f["size"]*float64(30*time.Nanosecond))
	}
	icoMem := func(f, _ map[string]float64) int64 { return 380*MB + int64(f["size"]*10) }
	icoTime := func(f, _ map[string]float64) time.Duration {
		return 150*time.Millisecond + time.Duration(f["size"]*float64(100*time.Nanosecond))
	}
	strMem := func(f, _ map[string]float64) int64 { return 200*MB + int64(f["size"]*8) }
	strTime := func(f, _ map[string]float64) time.Duration {
		return 100*time.Millisecond + time.Duration(f["size"]*float64(80*time.Nanosecond))
	}
	verMem := func(f, _ map[string]float64) int64 { return 90 * MB }
	verTime := func(f, _ map[string]float64) time.Duration { return 100 * time.Millisecond }

	book := func(m int64) int64 { return BookedMem(profile, m, platformMax) }
	maxApp := map[string]float64{"size": 16e6}
	unpack := &faas.Function{Name: "imad_unpack", Tenant: tenant, InputType: "none", MemoryBooked: book(unpMem(maxApp, nil))}
	icons := &faas.Function{Name: "imad_icons", Tenant: tenant, InputType: "image", MemoryBooked: book(icoMem(map[string]float64{"size": 16e6 * 0.15}, nil))}
	strs := &faas.Function{Name: "imad_strings", Tenant: tenant, InputType: "text", MemoryBooked: book(strMem(map[string]float64{"size": 16e6 * 0.08}, nil))}
	verdict := &faas.Function{Name: "imad_verdict", Tenant: tenant, InputType: "none", MemoryBooked: book(verMem(nil, nil))}

	unpack.Body = func(ctx *faas.Ctx) error {
		in := ctx.InputKeys()[0]
		blob, err := ctx.Extract(in)
		if err != nil {
			return err
		}
		f := su.FeaturesOf(in, blob.Size)
		if err := ctx.Transform(unpTime(f, nil), unpMem(f, nil)); err != nil {
			return err
		}
		id := ctx.PipelineID()
		per := int64(f["size"] * 0.15 / 6)
		for j := 0; j < 6; j++ {
			if err := su.loadObj(ctx, fmt.Sprintf("pl/%s/icon/%d", id, j), per, faas.KindIntermediate, nil); err != nil {
				return err
			}
		}
		return su.loadObj(ctx, "pl/"+id+"/strings", int64(f["size"]*0.08), faas.KindIntermediate, nil)
	}
	analysisBody := func(mem func(f, _ map[string]float64) int64, tim func(f, _ map[string]float64) time.Duration, outName string, outSize int64) func(*faas.Ctx) error {
		return func(ctx *faas.Ctx) error {
			var total int64
			for _, in := range ctx.InputKeys() {
				blob, err := ctx.Extract(in)
				if err != nil {
					return err
				}
				total += blob.Size
			}
			f := map[string]float64{"size": float64(total)}
			if err := ctx.Transform(tim(f, nil), mem(f, nil)); err != nil {
				return err
			}
			return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/"+outName, outSize, faas.KindIntermediate, nil)
		}
	}
	icons.Body = analysisBody(icoMem, icoTime, "icons.report", 100<<10)
	strs.Body = analysisBody(strMem, strTime, "strings.report", 50<<10)
	verdict.Body = func(ctx *faas.Ctx) error {
		for _, key := range ctx.InputKeys() {
			if _, err := ctx.Extract(key); err != nil {
				return err
			}
		}
		if err := ctx.Transform(verTime(nil, nil), verMem(nil, nil)); err != nil {
			return err
		}
		return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/verdict", 20<<10, faas.KindFinal, nil)
	}

	pl := &Pipeline{InputType: "none", Funcs: []*faas.Function{unpack, icons, strs, verdict}}
	pl.Run = func(p *faas.Platform, in InputMeta, id string) *PipelineResult {
		out := &PipelineResult{}
		r1 := p.Invoke(stageReq(unpack, id, []string{in.Key}, in.Features, false))
		out.Results = append(out.Results, r1)
		if r1.Err != nil {
			out.Err = r1.Err
			return out
		}
		size := in.Features["size"]
		iconKeys := make([]string, 6)
		for j := range iconKeys {
			iconKeys[j] = fmt.Sprintf("pl/%s/icon/%d", id, j)
		}
		par := p.InvokeParallel([]*faas.Request{
			stageReq(icons, id, iconKeys, map[string]float64{"size": size * 0.15}, false),
			stageReq(strs, id, []string{"pl/" + id + "/strings"}, map[string]float64{"size": size * 0.08}, false),
		})
		out.Results = append(out.Results, par...)
		for _, r := range par {
			if r.Err != nil {
				out.Err = r.Err
				return out
			}
		}
		r4 := p.Invoke(stageReq(verdict, id,
			[]string{"pl/" + id + "/icons.report", "pl/" + id + "/strings.report"},
			map[string]float64{"size": 150 << 10}, true))
		out.Results = append(out.Results, r4)
		out.Err = r4.Err
		return out
	}
	pl.stages = []*stageModel{
		{fn: unpack, mem: unpMem, tim: unpTime,
			outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.23) },
			sample: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"size": float64(1+rng.Intn(16)) * 1e6}
			}},
		{fn: icons, mem: icoMem, tim: icoTime,
			outSz: func(_, _ map[string]float64) int64 { return 100 << 10 },
			inOps: 6,
			sample: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"size": float64(1+rng.Intn(16)) * 0.15e6}
			}},
		{fn: strs, mem: strMem, tim: strTime,
			outSz: func(_, _ map[string]float64) int64 { return 50 << 10 },
			sample: func(rng *rand.Rand) map[string]float64 {
				return map[string]float64{"size": float64(1+rng.Intn(16)) * 0.08e6}
			}},
		{fn: verdict, mem: verMem, tim: verTime,
			outSz:  func(_, _ map[string]float64) int64 { return 20 << 10 },
			sample: func(rng *rand.Rand) map[string]float64 { return map[string]float64{"size": 150 << 10} }},
	}
	return pl
}

// ---------------------------------------------------------------------------
// Image Processing — the ServerlessBench thumbnail-generator pipeline:
// extract metadata → transform → thumbnail → upload, each stage
// re-reading the previous stage's output.

// NewImageProcessing builds the 4-stage thumbnail pipeline.
func NewImageProcessing(su *Suite, tenant string, profile TenantProfile, platformMax int64) *Pipeline {
	frame := func(f map[string]float64) float64 { return pixels(f) * chans(f) * 4 }
	metaMem := func(f, _ map[string]float64) int64 { return 70*MB + int64(frame(f)*1.2) }
	metaTime := func(f, _ map[string]float64) time.Duration {
		return 3*time.Millisecond + time.Duration(pixels(f)*float64(50*time.Nanosecond))
	}
	tfMem := func(f, _ map[string]float64) int64 { return 72*MB + int64(frame(f)*2.5) }
	tfTime := func(f, _ map[string]float64) time.Duration {
		return 5*time.Millisecond + time.Duration(pixels(f)*float64(250*time.Nanosecond))
	}
	thMem := func(f, _ map[string]float64) int64 { return 70*MB + int64(frame(f)*1.8) }
	thTime := func(f, _ map[string]float64) time.Duration {
		return 4*time.Millisecond + time.Duration(pixels(f)*float64(150*time.Nanosecond))
	}
	upMem := func(_, _ map[string]float64) int64 { return 64 * MB }
	upTime := func(_, _ map[string]float64) time.Duration { return 2 * time.Millisecond }

	book := func(m int64) int64 { return BookedMem(profile, m, platformMax) }
	big := genImage(rand.New(rand.NewSource(1)), 1<<20)
	meta := &faas.Function{Name: "ip_meta", Tenant: tenant, InputType: "image", MemoryBooked: book(metaMem(big, nil))}
	transform := &faas.Function{Name: "ip_transform", Tenant: tenant, InputType: "image", MemoryBooked: book(tfMem(big, nil))}
	thumb := &faas.Function{Name: "ip_thumbnail", Tenant: tenant, InputType: "image", MemoryBooked: book(thMem(big, nil))}
	upload := &faas.Function{Name: "ip_upload", Tenant: tenant, InputType: "image", MemoryBooked: book(upMem(nil, nil))}

	simpleStage := func(mem func(f, _ map[string]float64) int64, tim func(f, _ map[string]float64) time.Duration, outSuffix string, outFactor float64, kind faas.ObjKind) func(*faas.Ctx) error {
		return func(ctx *faas.Ctx) error {
			in := ctx.InputKeys()[0]
			blob, err := ctx.Extract(in)
			if err != nil {
				return err
			}
			f := su.FeaturesOf(in, blob.Size)
			if err := ctx.Transform(tim(f, nil), mem(f, nil)); err != nil {
				return err
			}
			out := map[string]float64{"width": f["width"], "height": f["height"], "channels": f["channels"]}
			if outSuffix == ".thumb" {
				out["width"], out["height"] = 128, 96
			}
			return su.loadObj(ctx, "pl/"+ctx.PipelineID()+outSuffix, int64(float64(blob.Size)*outFactor), kind, out)
		}
	}
	meta.Body = simpleStage(metaMem, metaTime, ".meta", 0.001, faas.KindIntermediate)
	transform.Body = simpleStage(tfMem, tfTime, ".transformed", 0.9, faas.KindIntermediate)
	thumb.Body = simpleStage(thMem, thTime, ".thumb", 0.08, faas.KindIntermediate)
	upload.Body = func(ctx *faas.Ctx) error {
		in := ctx.InputKeys()[0]
		blob, err := ctx.Extract(in)
		if err != nil {
			return err
		}
		if err := ctx.Transform(upTime(nil, nil), upMem(nil, nil)); err != nil {
			return err
		}
		return su.loadObj(ctx, "pl/"+ctx.PipelineID()+"/thumbnail", blob.Size, faas.KindFinal, nil)
	}

	pl := &Pipeline{InputType: "image", Funcs: []*faas.Function{meta, transform, thumb, upload}}
	pl.Run = func(p *faas.Platform, in InputMeta, id string) *PipelineResult {
		out := &PipelineResult{}
		imgF := in.Features
		smaller := map[string]float64{"size": float64(in.Size) * 0.9, "width": imgF["width"], "height": imgF["height"], "channels": imgF["channels"]}
		thumbF := map[string]float64{"size": float64(in.Size) * 0.9 * 0.08, "width": 128, "height": 96, "channels": imgF["channels"]}
		seq := p.InvokeSequence([]*faas.Request{
			stageReq(meta, id, []string{in.Key}, imgF, false),
			stageReq(transform, id, []string{in.Key}, imgF, false),
			stageReq(thumb, id, []string{"pl/" + id + ".transformed"}, smaller, false),
			stageReq(upload, id, []string{"pl/" + id + ".thumb"}, thumbF, true),
		})
		out.Results = seq
		for _, r := range seq {
			if r.Err != nil {
				out.Err = r.Err
				break
			}
		}
		return out
	}
	sampleImg := func(rng *rand.Rand) map[string]float64 {
		return genImage(rng, int64(16+rng.Intn(1024))<<10)
	}
	pl.stages = []*stageModel{
		{fn: meta, mem: metaMem, tim: metaTime, outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.001) }, sample: sampleImg},
		{fn: transform, mem: tfMem, tim: tfTime, outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.9) }, sample: sampleImg},
		{fn: thumb, mem: thMem, tim: thTime, outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.08) }, sample: sampleImg},
		{fn: upload, mem: upMem, tim: upTime, outSz: func(f, _ map[string]float64) int64 { return int64(f["size"] * 0.08) }, sample: sampleImg},
	}
	return pl
}
