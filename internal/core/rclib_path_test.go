package core

import (
	"fmt"
	"testing"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/sim"
)

// concurrentColdGets fires n simultaneous Gets of one cold key from
// one worker and returns the RSDS fetch count they caused plus the
// proxy stats.
func concurrentColdGets(t *testing.T, n int) (rsdsGets int64, stats CacheStats) {
	t.Helper()
	sys := NewSystem(testOptions(5))
	w := sys.WorkerNodes[0]
	errs := make([]error, n)
	sizes := make([]int64, n)
	var before int64
	sys.Run(func() {
		sys.RSDS.Put(sys.CtrlNode, "img/cold", kvstore.Synthetic(64<<10), nil, false)
		before, _, _, _, _ = sys.RSDS.Stats()
		for i := 0; i < n; i++ {
			i := i
			sys.Env.Go(func() {
				var blob faas.Blob
				blob, errs[i] = sys.RC.Get(w, "img/cold", faas.PutOpts{ShouldCache: true, Benefit: 1})
				sizes[i] = blob.Size
			})
		}
		sys.Env.Sleep(5 * time.Second)
	})
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if sizes[i] != 64<<10 {
			t.Fatalf("get %d returned %d bytes, want %d", i, sizes[i], 64<<10)
		}
	}
	after, _, _, _, _ := sys.RSDS.Stats()
	return after - before, sys.RC.Stats()
}

// TestConcurrentMissesEachFetch pins the paper's miss path: N
// concurrent misses of one key on one node each pay their own RSDS
// fetch and each count a miss.
func TestConcurrentMissesEachFetch(t *testing.T) {
	gets, stats := concurrentColdGets(t, 4)
	if gets != 4 {
		t.Errorf("%d RSDS fetches for 4 concurrent misses, want 4", gets)
	}
	if stats.Misses != 4 {
		t.Errorf("Misses=%d, want 4", stats.Misses)
	}
}

// TestGetHitStatsPathZeroAlloc is the allocation regression gate for
// the warm-read bookkeeping: counters, placement attribution and the
// control-plane touch must not allocate.
func TestGetHitStatsPathZeroAlloc(t *testing.T) {
	sys := newSystem(9)
	w := sys.WorkerNodes[0]
	// A real cached object, so the placement lookup and the governor
	// touch both take their full paths. The ops run before the agent's
	// first growth tick, which shrinks the idle node's grant and frees
	// the object.
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		if _, err := sys.KV.Write(w, "img/hot", kvstore.Synthetic(4<<10), nil, w); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		if _, ok := sys.KV.MasterOf("img/hot"); !ok {
			t.Fatal("seed object has no placement; the test would skip the touch path")
		}
		if n := testing.AllocsPerRun(200, func() { sys.RC.noteGetHit(w, "img/hot", false) }); n != 0 {
			t.Errorf("Get-hit stats path allocates %v/op, want 0", n)
		}
		if n := testing.AllocsPerRun(200, func() { sys.RC.noteGetMiss("img/hot", false) }); n != 0 {
			t.Errorf("Get-miss stats path allocates %v/op, want 0", n)
		}
	})
}

// quietSystem is the test bed of the proxy-path allocation ceilings:
// newSystem's shape with no cache agents, so grants are set by hand
// and no agent runs between ops.
func quietSystem() *System {
	opts := testOptions(1)
	opts.DisableCacheAgents = true
	return NewSystem(opts)
}

// TestGetHitAllocCeiling pins the allocations of a local-hit RC.Get,
// the proxy's warm read path end to end.
func TestGetHitAllocCeiling(t *testing.T) {
	sys := quietSystem()
	w := sys.WorkerNodes[0]
	var allocs float64
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		if _, err := sys.KV.Write(w, "img/hot", kvstore.Synthetic(4<<10), nil, w); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		allocs = testing.AllocsPerRun(10000, func() {
			if _, err := sys.RC.Get(w, "img/hot", faas.PutOpts{}); err != nil {
				t.Fatalf("get: %v", err)
			}
		})
	})
	if allocs > 0 {
		t.Errorf("local-hit Get: %.0f allocs, want none", allocs)
	}
}

// TestMissFanAllocCeiling pins the allocations of a fan of four
// concurrent misses of one key, each with its own RSDS fetch. The Gets
// do not ask to cache, so every fan misses again.
func TestMissFanAllocCeiling(t *testing.T) {
	sys := quietSystem()
	w := sys.WorkerNodes[0]
	var allocs float64
	sys.Run(func() {
		sys.RSDS.Put(sys.CtrlNode, "img/cold", kvstore.Synthetic(64<<10), nil, false)
		allocs = testing.AllocsPerRun(10000, func() {
			wg := sim.NewWaitGroup(sys.Env)
			for j := 0; j < 4; j++ {
				wg.Add(1)
				sys.Env.Go(func() {
					defer wg.Done()
					if _, err := sys.RC.Get(w, "img/cold", faas.PutOpts{}); err != nil {
						t.Errorf("get: %v", err)
					}
				})
			}
			wg.Wait()
		})
	})
	if allocs > 10 {
		t.Errorf("fan of four misses: %.0f allocs, want at most 10", allocs)
	}
}

// TestPutAllocCeiling pins the allocations of an RC.Put of a pipeline
// intermediate into the caller's own cache server, the proxy's local
// write path end to end.
func TestPutAllocCeiling(t *testing.T) {
	sys := quietSystem()
	w := sys.WorkerNodes[0]
	blob := kvstore.Synthetic(4 << 10)
	opts := faas.PutOpts{Kind: faas.KindIntermediate}
	var allocs float64
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		if err := sys.RC.Put(w, "pl/p/mid", blob, opts); err != nil {
			t.Fatalf("seed put: %v", err)
		}
		if m, _ := sys.KV.MasterOf("pl/p/mid"); m != w {
			t.Fatalf("intermediate mastered on %d, want the caller %d", m, w)
		}
		allocs = testing.AllocsPerRun(10000, func() {
			if err := sys.RC.Put(w, "pl/p/mid", blob, opts); err != nil {
				t.Fatalf("put: %v", err)
			}
		})
	})
	if st := sys.RC.Stats(); st.BypassWrites != 0 || st.FallbackWrites != 0 {
		t.Fatalf("puts left the cache path: %+v", st)
	}
	if allocs > 9 {
		t.Errorf("local intermediate Put: %.0f allocs, want at most 9", allocs)
	}
}

// TestPipelineKeysAllocCeiling: once a pipeline has completed, the
// next pipeline's intermediate Put and completion reuse its key list,
// so they allocate no more than the same Put and eviction with no
// pipeline to track: only the store's record of the new object.
func TestPipelineKeysAllocCeiling(t *testing.T) {
	sys := quietSystem()
	w := sys.WorkerNodes[0]
	blob := kvstore.Synthetic(4 << 10)
	var plain, tracked float64
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		run := func(pipeline string, done func()) func() {
			return func() {
				opts := faas.PutOpts{Kind: faas.KindIntermediate, Pipeline: pipeline}
				if err := sys.RC.Put(w, "pl/p/mid", blob, opts); err != nil {
					t.Fatalf("put: %v", err)
				}
				if _, ok := sys.KV.MasterOf("pl/p/mid"); !ok {
					t.Fatal("intermediate not cached")
				}
				done()
				if _, ok := sys.KV.MasterOf("pl/p/mid"); ok {
					t.Fatal("intermediate survived its pipeline")
				}
			}
		}
		untracked := run("", func() { sys.RC.be.Evict("pl/p/mid", 0) })
		pipeline := run("p", func() { sys.RC.PipelineDone("p") })
		untracked()
		pipeline()
		plain = testing.AllocsPerRun(1000, untracked)
		tracked = testing.AllocsPerRun(1000, pipeline)
	})
	if st := sys.RC.Stats(); st.BypassWrites != 0 || st.FallbackWrites != 0 {
		t.Fatalf("puts left the cache path: %+v", st)
	}
	if tracked > plain || plain > 1 {
		t.Errorf("warm intermediate Put + PipelineDone: %.0f allocs, Put + Evict: %.0f; want the same, at most 1", tracked, plain)
	}
}

// TestWriteBackPutAllocCeiling pins the allocations of a write-back
// final RC.Put into the caller's own cache server: the shadow in the
// RSDS, the cache write and the Persistor's scheduling. The Persistors
// run while later Puts wait on the fabric, so their cost is counted
// too. The keys rotate, as each final is discarded once persisted.
func TestWriteBackPutAllocCeiling(t *testing.T) {
	sys := quietSystem()
	w := sys.WorkerNodes[0]
	blob := kvstore.Synthetic(4 << 10)
	opts := faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("out/%02d", i)
	}
	var allocs float64
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		i := 0
		put := func() {
			if err := sys.RC.Put(w, keys[i%len(keys)], blob, opts); err != nil {
				t.Fatalf("put: %v", err)
			}
			i++
		}
		put()
		allocs = testing.AllocsPerRun(10000, put)
	})
	if st := sys.RC.Stats(); st.BypassWrites != 0 || st.FallbackWrites != 0 || st.WriteBacks == 0 {
		t.Fatalf("puts left the write-back path: %+v", st)
	}
	if allocs > 16 {
		t.Errorf("local write-back Put: %.0f allocs, want at most 16", allocs)
	}
}
