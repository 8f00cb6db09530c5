package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ofc/internal/chaos"
	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/workload"
)

// Resilience exercises the fail-stop story (§3, §6.1): a worker node
// (FaaS invoker + cache master) crashes mid-run on a chaos schedule;
// RAMCloud-style timed recovery re-masters its objects from backup
// replicas, the platform routes around the dead invoker, and after the
// scheduled restart the node rejoins. The paper claims fault tolerance
// by construction; this experiment demonstrates it end to end — no
// invocation may fail in any phase.
func Resilience(seed int64) (*Table, bool) {
	cfg := DefaultDeploy()
	cfg.Seed = seed
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	spec := workload.SpecByName("wand_sepia")
	fn := d.Suite.Build(spec, "res", 0)
	d.Register(fn)
	rng := rand.New(rand.NewSource(seed))
	pool := workload.NewInputPool(rng, "image", "res", []int64{32 << 10, 64 << 10}, 4)
	d.Pretrain(spec, fn, pool, 300)

	// The victim dies at 10s and is revived at 25s; each measured phase
	// falls squarely inside one regime.
	victim := d.Workers[0]
	const crashAt = 10 * time.Second
	const restartAt = 25 * time.Second
	sched := chaos.NewSchedule().CrashAt(crashAt, victim).RestartAt(restartAt, victim)
	sys.ApplyChaos(sched, seed)

	t := &Table{
		Title:   "Extension — worker fail-stop and recovery (chaos schedule)",
		Headers: []string{"Phase", "Invocations", "Failures", "Mean E"},
	}
	healthy := true
	d.Run(func() {
		pool.Stage(d.Writer)
		runBatch := func(n int) (fails int, meanE time.Duration) {
			var total time.Duration
			for i := 0; i < n; i++ {
				in := pool.Inputs[i%len(pool.Inputs)]
				res := d.Platform.Invoke(workload.NewRequest(fn, spec, in, spec.GenArgs(rng)))
				if res.Err != nil {
					fails++
					continue
				}
				total += res.Extract
			}
			return fails, total / time.Duration(n)
		}
		phase := func(name string, fails int, meanE time.Duration) {
			t.Add(name, 8, fails, meanE)
			if fails > 0 {
				healthy = false
			}
		}

		// Warm phase: populate the cache on the victim before it dies.
		restore := d.PinTo(victim)
		fails, meanE := runBatch(8)
		restore()
		phase("warm (on victim)", fails, meanE)

		// While the victim is down: recovery has re-mastered its
		// objects, the router avoids the dead invoker, reads must hit
		// the promoted copies — and nothing may fail.
		d.Env.Sleep(crashAt + 2*time.Second - time.Duration(d.Env.Now()))
		fails, meanE = runBatch(8)
		phase("victim down (recovered)", fails, meanE)

		// After the scheduled restart: the node rejoins empty and
		// serves again.
		d.Env.Sleep(restartAt + 2*time.Second - time.Duration(d.Env.Now()))
		fails, meanE = runBatch(8)
		phase("after restart", fails, meanE)
	})
	ks := sys.KV.Stats()
	t.Add(fmt.Sprintf("recovery: %d objects in %s", ks.Recovered, fmtDur(ks.LastRecovery)), 0, 0, time.Duration(0))
	if ks.Recoveries == 0 || ks.Recovered == 0 {
		healthy = false
	}
	t.Note = "paper §6.1: fault tolerance via RAMCloud replication/recovery and OWK retries"
	return t, healthy
}

// ChunkingExtension measures the §6.1 future-work feature (arbitrary
// object sizes): the Load phase of a function emitting an oversized
// final output, with and without striping.
func ChunkingExtension(seed int64) (*Table, map[bool]time.Duration) {
	t := &Table{
		Title:   "Extension — large-object striping (arbitrary object sizes, §6.1 future work)",
		Headers: []string{"Chunking", "Output", "Load phase", "vs sync RSDS"},
	}
	out := map[bool]time.Duration{}
	const size = 40 << 20
	for _, enabled := range []bool{false, true} {
		cfg := DefaultDeploy()
		cfg.Seed = seed
		cfg.Tune = func(o *core.Options) { o.Chunking = enabled }
		d := NewDeployment(ModeOFC, cfg)
		fn := &faas.Function{Name: "bigout", Tenant: "ext", MemoryBooked: 1 << 30, InputType: "none",
			Body: func(ctx *faas.Ctx) error {
				return ctx.Load("ext/out", faas.Blob{Size: size}, faas.KindFinal)
			}}
		d.Register(fn)
		d.Platform.Advisor = alwaysCache{}
		var load time.Duration
		d.Run(func() {
			res := d.Platform.Invoke(&faas.Request{Function: fn})
			load = res.Load
		})
		out[enabled] = load
	}
	base := out[false]
	for _, enabled := range []bool{false, true} {
		label := "off (paper config)"
		if enabled {
			label = "on (extension)"
		}
		t.Add(label, fmtSize(size), out[enabled], pct(improvement(base, out[enabled])))
	}
	return t, out
}

// Constants verifies the §6.4/§7.2.1 micro constants end to end: the
// empty-function end-to-end time, the shadow persist, the cgroup
// update, the Predictor+Sizer overhead and the small-object promotion.
// Its three deployments run at seed.
func Constants(seed int64) *Table {
	t := &Table{
		Title:   "§6.4/§7.2.1 — micro constants (measured end to end)",
		Headers: []string{"Constant", "Paper", "Measured"},
	}
	cfg := DefaultDeploy()
	cfg.Seed = seed

	// Empty function through vanilla OWK (warm).
	d := NewDeployment(ModeSwift, cfg)
	empty := &faas.Function{Name: "empty", Tenant: "c", MemoryBooked: 128 << 20,
		Body: func(ctx *faas.Ctx) error { return nil }}
	d.Register(empty)
	var warm time.Duration
	d.Run(func() {
		d.Platform.Invoke(&faas.Request{Function: empty})
		res := d.Platform.Invoke(&faas.Request{Function: empty})
		warm = res.Duration()
	})
	t.Add("empty function end-to-end (warm)", "≈8ms", warm)

	// Shadow persist.
	d2 := NewDeployment(ModeOFC, cfg)
	var shadow time.Duration
	d2.Run(func() {
		start := d2.Env.Now()
		d2.Store.PutShadow(d2.Workers[0], "c/shadow", 1<<20)
		shadow = time.Duration(d2.Env.Now() - start)
	})
	t.Add("shadow-object persist", "≈11ms", shadow)

	// cgroup/docker resize (configured constant, charged async).
	t.Add("cgroup+docker resize", "≈24ms", faas.ResizeLatency)

	// Predictor+Sizer critical-path overhead (configured).
	t.Add("Predictor+Sizer overhead", "≈6ms", faas.AdviceOverhead)

	// Promotion of one 8 MB object.
	d3 := NewDeployment(ModeOFC, cfg)
	var promo time.Duration
	d3.Env.Go(func() {
		for _, inv := range d3.Sys.Platform.Invokers()[:2] {
			inv.SetCacheGrant(inv.Capacity())
		}
		d3.Sys.KV.Write(d3.Sys.CtrlNode, "c/promo", kvstore.Synthetic(8<<20), nil, d3.Workers[0])
		start := d3.Env.Now()
		if err := d3.Sys.KV.MigrateToBackup("c/promo", 0); err != nil {
			panic(err)
		}
		promo = time.Duration(d3.Env.Now() - start)
		d3.Env.Stop()
	})
	d3.Env.Run()
	t.Add("promotion, single 8MB object", "≈0.18ms", promo)

	return t
}

// StorePlane measures the refactored storage data plane end to end:
// batched multi-object operations resolve all placements in one
// coordinator round-trip and issue at most one control RPC per
// involved master, where per-key loops pay one of each per key. The
// returned flag is the acceptance verdict.
func StorePlane(seed int64) (*Table, bool) {
	t := &Table{
		Title:   "Extension — storage data plane (batched multi-ops)",
		Headers: []string{"Path", "Keys", "Coord RPCs", "Server RPCs", "Wall"},
	}
	cfg := DefaultDeploy()
	cfg.Seed = seed
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	const n = 16
	healthy := true
	d.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		caller := sys.WorkerNodes[0]
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("sp/%d", i)
			pref := sys.WorkerNodes[i%len(sys.WorkerNodes)]
			if _, err := sys.KV.Write(pref, keys[i], kvstore.Synthetic(256<<10), nil, pref); err != nil {
				healthy = false
				return
			}
		}
		before := sys.KV.Stats()
		t0 := d.Env.Now()
		for _, r := range sys.KV.ReadMulti(caller, keys) {
			if r.Err != nil {
				healthy = false
			}
		}
		batched := sys.KV.Stats()
		t.Add("ReadMulti (batched)", n,
			batched.CoordRPCs-before.CoordRPCs, batched.ServerRPCs-before.ServerRPCs,
			time.Duration(d.Env.Now()-t0))
		t0 = d.Env.Now()
		for _, k := range keys {
			if _, _, err := sys.KV.Read(caller, k); err != nil {
				healthy = false
			}
		}
		per := sys.KV.Stats()
		t.Add("per-key reads", n,
			per.CoordRPCs-batched.CoordRPCs, per.ServerRPCs-batched.ServerRPCs,
			time.Duration(d.Env.Now()-t0))
		if batched.CoordRPCs-before.CoordRPCs != 1 ||
			batched.ServerRPCs-before.ServerRPCs > int64(len(sys.WorkerNodes)) {
			healthy = false
		}
	})
	t.Note = "batched path groups keys per master, ≤1 control RPC per involved server"
	return t, healthy
}
