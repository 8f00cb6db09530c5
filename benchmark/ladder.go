package main

import (
	"fmt"
	"runtime"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/store"
)

// ladderOps is the operation count per rung: enough for a stable
// allocs/op, small enough that the whole ladder takes about a second.
const ladderOps = 2000

// ladderRungs names the rungs in order; each drives one layer's public
// function alone, so the difference between neighbouring rungs is the
// cost the upper layer adds.
var ladderRungs = []string{
	"sim_sleep", "sim_future", "simnet_transfer", "kvstore_read", "kvstore_write",
	"store_resilient_read", "store_chunked_read", "store_instrumented_read",
	"rclib_get_hit", "rclib_get_miss", "rclib_put", "predictor_advise", "faas_invoke_warm",
}

// runLadder measures every rung from one process in a quiet 3-worker
// system (no cache agents, grants set by hand) and reports
// ladder.<rung>.ns_per_op (host clock, advisory) and
// ladder.<rung>.allocs_per_op.
func runLadder(ms *metricSet) error {
	opts := core.DefaultOptions()
	opts.Workers = 3
	opts.NodeCapacity = 4 * gb
	opts.DisableCacheAgents = true
	sys := core.NewSystem(opts)
	env := sys.Env
	w, w2 := sys.WorkerNodes[0], sys.WorkerNodes[1]

	fn := &faas.Function{Name: "ladder", Tenant: "ladder", MemoryBooked: 128 * mb, InputType: "none",
		Body: func(ctx *faas.Ctx) error { return ctx.Transform(time.Millisecond, 32*mb) }}
	sys.Register(fn)
	features := map[string]float64{"size": float64(4 * kb)}
	sys.Trainer.Pretrain(fn, constSamples(sys.Pred.Schema(fn), features, 32*mb, 40*time.Millisecond, time.Millisecond, 0))
	// One request value serves every op: building it is the caller's
	// cost, not the layer's.
	req := &faas.Request{Function: fn, InputFeatures: features}

	var failure error
	rung := func(name string, op func(i int) error) {
		if failure != nil {
			return
		}
		if err := op(-1); err != nil { // warm the path: first-use allocations are not per-op cost
			failure = fmt.Errorf("ladder %s: %w", name, err)
			return
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		start := time.Now()
		for i := 0; i < ladderOps; i++ {
			if err := op(i); err != nil {
				failure = fmt.Errorf("ladder %s: %w", name, err)
				return
			}
		}
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&b)
		ms.set("ladder."+name+".ns_per_op", float64(ns)/ladderOps, "ns/op")
		ms.set("ladder."+name+".allocs_per_op", float64(b.Mallocs-a.Mallocs)/ladderOps, "allocs/op")
	}

	sys.Env.Go(func() {
		defer env.Stop()
		blob := kvstore.Synthetic(4 * kb)
		for _, node := range sys.WorkerNodes {
			if err := sys.KV.SetMemoryLimit(node, 1*gb); err != nil {
				failure = err
				return
			}
		}
		if _, err := sys.KV.Write(w, "ladder/hot", blob, nil, w); err != nil {
			failure = err
			return
		}
		sys.RSDS.Put(sys.CtrlNode, "ladder/cold", blob, nil, false)
		resilient := store.NewResilient(env, sys.KV, store.DefaultResilienceConfig())
		chunked := store.NewChunked(resilient, store.DefaultChunkSize)
		rotating := func(i int) string { return fmt.Sprintf("ladder/w-%02d", (i+64)%64) }

		rung("sim_sleep", func(int) error { env.Sleep(time.Microsecond); return nil })
		rung("sim_future", func(int) error {
			f := sim.NewFuture[int](env)
			env.After(0, func() { f.Set(1) })
			f.Wait()
			return nil
		})
		rung("simnet_transfer", func(int) error { sys.Net.Transfer(w, w2, 4*kb); return nil })
		rung("kvstore_read", func(int) error { _, _, err := sys.KV.Read(w, "ladder/hot"); return err })
		rung("kvstore_write", func(i int) error { _, err := sys.KV.Write(w, rotating(i), blob, nil, w); return err })
		rung("store_resilient_read", func(int) error { _, _, err := resilient.Read(w, "ladder/hot"); return err })
		rung("store_chunked_read", func(int) error { _, _, err := chunked.Read(w, "ladder/hot"); return err })
		// The proxy's own stack is Instrumented over Chunked over
		// Resilient, so its top is the third middleware rung.
		rung("store_instrumented_read", func(int) error { _, _, err := sys.RC.Backend().Read(w, "ladder/hot"); return err })
		rung("rclib_get_hit", func(int) error { _, err := sys.RC.Get(w, "ladder/hot", faas.PutOpts{}); return err })
		// ShouldCache is false, so the miss is never admitted and every
		// call pays the RSDS fetch.
		rung("rclib_get_miss", func(int) error { _, err := sys.RC.Get(w, "ladder/cold", faas.PutOpts{}); return err })
		// A cacheable final: shadow put, replicated cache write and an
		// asynchronous persistor invocation, whose work is part of the
		// cost of a put.
		rung("rclib_put", func(i int) error {
			return sys.RC.Put(w, "ladder/out/"+rotating(i), blob, faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true})
		})
		rung("predictor_advise", func(int) error {
			if !sys.Pred.Advise(req).Use {
				return fmt.Errorf("advice not usable")
			}
			return nil
		})
		rung("faas_invoke_warm", func(int) error { return sys.Platform.Invoke(req).Err })
		env.Sleep(5 * time.Second) // let the last write-backs land before the clock stops
	})
	env.Run()
	return failure
}
