package core

import (
	"testing"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
)

// concurrentColdGets fires n simultaneous Gets of one cold key from
// one worker and returns the RSDS fetch count they caused plus the
// proxy stats.
func concurrentColdGets(t *testing.T, coalesce bool, n int) (rsdsGets int64, stats CacheStats) {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 5
	opts.Workers = 3
	opts.NodeCapacity = 4 << 30
	opts.CoalesceMisses = coalesce
	sys := NewSystem(opts)
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

// TestMissCoalescing checks the singleflight contract: N concurrent
// misses of one key on one node issue exactly one RSDS fetch, every
// caller still counts its own miss, and the followers are visible in
// MissCoalesced.
func TestMissCoalescing(t *testing.T) {
	gets, stats := concurrentColdGets(t, true, 4)
	if gets != 1 {
		t.Errorf("coalesced: %d RSDS fetches for 4 concurrent misses, want 1", gets)
	}
	if stats.Misses != 4 {
		t.Errorf("coalesced: Misses=%d, want 4 (each caller counts its own)", stats.Misses)
	}
	if stats.MissCoalesced != 3 {
		t.Errorf("coalesced: MissCoalesced=%d, want 3", stats.MissCoalesced)
	}
	if stats.Admissions > 1 {
		t.Errorf("coalesced: Admissions=%d, want at most 1", stats.Admissions)
	}
}

// TestMissCoalescingOffByDefault pins the faithful-paper default:
// without Options.CoalesceMisses every miss pays its own RSDS fetch.
func TestMissCoalescingOffByDefault(t *testing.T) {
	gets, stats := concurrentColdGets(t, false, 4)
	if gets != 4 {
		t.Errorf("uncoalesced: %d RSDS fetches for 4 concurrent misses, want 4", gets)
	}
	if stats.MissCoalesced != 0 {
		t.Errorf("uncoalesced: MissCoalesced=%d, want 0", stats.MissCoalesced)
	}
}

// TestGetHitStatsPathZeroAlloc is the allocation regression gate for
// the warm-read bookkeeping: counters, placement attribution and the
// control-plane touch must not allocate.
func TestGetHitStatsPathZeroAlloc(t *testing.T) {
	sys := newSystem(9)
	w := sys.WorkerNodes[0]
	// A real cached object, so the placement lookup and the governor
	// touch both take their full paths.
	sys.Run(func() {
		sys.KV.SetMemoryLimit(w, 1<<30)
		if _, err := sys.Backend.Write(w, "img/hot", kvstore.Synthetic(4<<10), nil, w); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	})
	if _, ok := sys.KV.MasterOf("img/hot"); !ok {
		t.Fatal("seed object has no placement; the test would skip the touch path")
	}
	if n := testing.AllocsPerRun(200, func() { sys.RC.noteGetHit(w, "img/hot", false) }); n != 0 {
		t.Errorf("Get-hit stats path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sys.RC.noteGetMiss("img/hot", false) }); n != 0 {
		t.Errorf("Get-miss stats path allocates %v/op, want 0", n)
	}
}
