// Loadtest: drive a multi-tenant FaaSLoad workload (four image tenants
// with exponential arrivals) against an OFC deployment for ten virtual
// minutes, and print per-tenant results plus the cache's growth — a
// miniature of the paper's §7.2.2 macro experiment.
//
//	go run ./examples/loadtest
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"ofc"
	"ofc/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for inputs and arrival processes")
	flag.Parse()

	sys := ofc.NewSystem(ofc.DefaultOptions())
	su := workload.NewSuite()
	rng := rand.New(rand.NewSource(*seed))
	fl := workload.NewFaaSLoad(sys.Env, sys.Platform, *seed+41)

	names := []string{"wand_blur", "wand_sepia", "wand_edge", "wand_resize"}
	pools := map[string]*workload.InputPool{}
	for _, name := range names {
		spec := ofc.SpecByName(name)
		pool := workload.NewInputPool(rng, "image", "lt/"+name,
			[]int64{16 << 10, 64 << 10, 128 << 10}, 3)
		pools[name] = pool
		booked := workload.BookedMem(ofc.ProfileNormal, spec.MaxMem(pool, rng), 2<<30)
		fn := su.Build(spec, name, booked)
		sys.Register(fn)
		sys.Trainer.Pretrain(fn, workload.TrainingSamples(spec, fn, pool, 300, rng, sys.RSDS.Profile()))
		fl.AddFunctionTenant(name, spec, fn, pool, 20*time.Second)
	}

	const window = 10 * time.Minute
	var series []string
	sys.Env.SetHorizon(window + time.Minute)
	sys.Start()
	sys.Env.Every(time.Minute, func() bool {
		series = append(series, fmt.Sprintf("  t=%-6v cache=%6.1f MB",
			time.Duration(sys.Env.Now()).Round(time.Second), float64(sys.CacheBytes())/float64(1<<20)))
		return true
	})
	sys.Env.Go(func() {
		w := workload.RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode}
		for _, pool := range pools {
			pool.Stage(w)
		}
		fl.Start(window)
	})
	sys.Env.Run()

	fmt.Printf("%-12s %12s %9s %8s %8s %8s %9s\n", "tenant", "invocations", "failures", "E", "T", "L", "total")
	for _, r := range fl.Reports() {
		fmt.Printf("%-12s %12d %9d %7.2fs %7.2fs %7.2fs %8.2fs\n",
			r.Name, r.Invocations, r.Failures, r.TotalE.Seconds(), r.TotalT.Seconds(), r.TotalL.Seconds(), r.TotalExec.Seconds())
	}
	good, bad := sys.PredictionCounts()
	fmt.Printf("\nhit ratio: %.1f%%   good/bad predictions: %d/%d\n",
		sys.RC.HitRatio()*100, good, bad)
	fmt.Println("\ncache size over time:")
	for _, line := range series {
		fmt.Println(line)
	}
}
