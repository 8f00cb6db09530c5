// Quickstart: deploy an OFC stack, register a function, and watch the
// opportunistic cache turn a ~180 ms Swift-bound invocation into a
// ~30 ms one on the second call.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"ofc"
)

func main() {
	sys := ofc.NewSystem(ofc.DefaultOptions())

	// A little image function: read, compute for 20 ms with an
	// input-dependent footprint, write a half-size result.
	blur := &ofc.Function{
		Name: "blur", Tenant: "demo", MemoryBooked: 512 << 20,
		InputType: "image", ArgNames: []string{"sigma"},
		Body: func(ctx *ofc.Ctx) error {
			blob, err := ctx.Extract(ctx.InputKeys()[0])
			if err != nil {
				return err
			}
			peak := int64(72<<20) + blob.Size*120 + int64(ctx.Arg("sigma")*8)*(1<<20)
			if err := ctx.Transform(20*time.Millisecond, peak); err != nil {
				return err
			}
			return ctx.Load("demo/out.jpg", ofc.Blob{Size: blob.Size / 2}, ofc.KindFinal)
		},
	}
	sys.Register(blur)

	// Mature the memory/benefit models offline (FaaSLoad would collect
	// this during normal operation; see §5.3 of the paper).
	schema := sys.Pred.Schema(blur)
	var samples []ofc.Sample
	for i := 0; i < 200; i++ {
		size := float64((1 + i%8) * 16 << 10)
		sigma := float64(1 + i%4)
		vals := make([]float64, len(schema.Names()))
		for j, n := range schema.Names() {
			switch n {
			case "size":
				vals[j] = size
			case "width":
				vals[j] = 800
			case "height":
				vals[j] = 600
			case "channels":
				vals[j] = 3
			case "sigma":
				vals[j] = sigma
			}
		}
		samples = append(samples, ofc.Sample{
			Vals:    vals,
			PeakMem: int64(72<<20) + int64(size*120) + int64(sigma*8)*(1<<20),
			Extract: 40 * time.Millisecond, Transform: 20 * time.Millisecond, Load: 115 * time.Millisecond,
			BenefitKnown: true,
		})
	}
	sys.Trainer.Pretrain(blur, samples)

	features := map[string]float64{"size": 64 << 10, "width": 800, "height": 600, "channels": 3}
	req := func() *ofc.Request {
		return &ofc.Request{
			Function:      blur,
			InputKeys:     []string{"demo/in.jpg"},
			Args:          map[string]float64{"sigma": 2},
			InputFeatures: features,
		}
	}

	sys.Run(func() {
		// Stage the input in the Swift-like object store.
		sys.RSDS.Put(sys.CtrlNode, "demo/in.jpg", ofc.Blob{Size: 64 << 10}, nil, false)

		first := sys.Platform.Invoke(req())
		sys.Env.Sleep(time.Second) // let the cache admission land
		second := sys.Platform.Invoke(req())

		show := func(label string, r *ofc.Result) {
			fmt.Printf("%-18s E=%-10v T=%-10v L=%-10v total=%-10v sandbox=%dMB cold=%v\n",
				label, r.Extract, r.Transform, r.Load, r.Extract+r.Transform+r.Load,
				r.SandboxMem>>20, r.ColdStart)
		}
		show("first (miss):", first)
		show("second (hit):", second)
		fmt.Printf("\ncache stats: %+v\n", sys.RC.Stats())
		fmt.Printf("speedup on E phase: %.0fx\n", float64(first.Extract)/float64(second.Extract))
	})
}
