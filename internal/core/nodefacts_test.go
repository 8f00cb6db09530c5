package core

import (
	"math/rand"
	"testing"
	"time"

	"ofc/internal/chaos"
	"ofc/internal/faas"
)

// TestNodeFactsAgreeAcrossLayers drives every way a cache grant
// changes (the agent's Grow and Reclaim, SetCacheGrant,
// SetMemoryLimit) and ApplyChaos crashes and restarts across the
// workers, in a seeded random order, and checks after every step that
// the layers agree on each worker's two node facts: the kvstore
// server's memory limit is the invoker's cache grant, and the server,
// the invoker and the fabric say the same about whether it is up.
func TestNodeFactsAgreeAcrossLayers(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sys := newSystem(seed)
		rng := rand.New(rand.NewSource(seed))
		workers := sys.WorkerNodes

		// Crash and restart pairs on random workers, at most one
		// worker down at a time so the store keeps its replicas.
		sched := chaos.NewSchedule()
		at := time.Second
		for i := 0; i < 4; i++ {
			n := workers[rng.Intn(len(workers))]
			down := time.Duration(1+rng.Intn(3)) * time.Second
			sched.CrashAt(at, n).RestartAt(at+down, n)
			at += down + time.Duration(1+rng.Intn(2))*time.Second
		}
		sys.ApplyChaos(sched, seed)

		// A large booking leaves most of a sandbox's memory to the
		// cache, so Grow has a grant to move.
		fn := &faas.Function{Name: "donor", Tenant: "t", MemoryBooked: 1 << 30, InputType: "none",
			Body: func(ctx *faas.Ctx) error { return ctx.Transform(50*time.Millisecond, 32<<20) }}
		sys.Register(fn)
		sys.Platform.Advisor = advisorAlways{}

		var crashesSeen, grantMoves int
		check := func(step int, what string) {
			t.Helper()
			anyDown := false
			for _, n := range workers {
				inv := sys.Platform.InvokerOn(n)
				_, limit := sys.KV.Usage(n)
				if grant := inv.CacheGrant(); limit != grant {
					t.Fatalf("seed %d step %d (%s): node %d: kvstore limit %d, invoker grant %d",
						seed, step, what, n, limit, grant)
				}
				down := sys.Net.NodeDown(n)
				if sys.KV.Server(n).Down() != down || inv.Down() != down {
					t.Fatalf("seed %d step %d (%s): node %d: fabric down=%v, kvstore down=%v, invoker down=%v",
						seed, step, what, n, down, sys.KV.Server(n).Down(), inv.Down())
				}
				anyDown = anyDown || down
			}
			if anyDown {
				crashesSeen++
			}
		}

		sys.Run(func() {
			// One sandbox per worker: each agent grants its waste.
			router := sys.Platform.Router
			for _, n := range workers {
				sys.Platform.Router = pinTo{node: n}
				sys.Platform.Invoke(&faas.Request{Function: fn})
			}
			sys.Platform.Router = router
			check(0, "initial grants")
			for step := 1; sys.Env.Now() < at+time.Second; step++ {
				n := workers[rng.Intn(len(workers))]
				inv := sys.Platform.InvokerOn(n)
				before := inv.CacheGrant()
				var what string
				switch rng.Intn(6) {
				case 0:
					what = "invoke"
					sys.Platform.Invoke(&faas.Request{Function: fn})
				case 1:
					what = "grow"
					sys.Gov.Agent(n).Grow()
				case 2:
					what = "reclaim"
					sys.Gov.Reclaim(n, int64(1+rng.Intn(256))<<20)
				case 3:
					what = "set cache grant"
					inv.SetCacheGrant(int64(rng.Intn(2048)) << 20)
				case 4:
					what = "set memory limit"
					sys.KV.SetMemoryLimit(n, int64(rng.Intn(2048))<<20)
				default:
					what = "sleep"
					sys.Env.Sleep(time.Duration(rng.Intn(500)) * time.Millisecond)
				}
				if inv.CacheGrant() != before {
					grantMoves++
				}
				check(step, what)
			}
		})
		t.Logf("seed %d: %d checks with a worker down, %d grant moves", seed, crashesSeen, grantMoves)
		if crashesSeen == 0 || grantMoves == 0 {
			t.Errorf("seed %d: the run never saw a worker down (%d) or a grant move (%d)", seed, crashesSeen, grantMoves)
		}
	}
}
