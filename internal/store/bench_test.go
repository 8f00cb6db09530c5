package store_test

import (
	"runtime"
	"testing"

	"ofc/internal/sim"
	"ofc/internal/store"
)

// resilientReads is one write and n local reads of it through a
// Resilient over the kvstore cluster: the proxy's hit path minus the
// proxy. It returns an Env ready to Run, so that
// TestResilientReadAllocCeiling measures exactly what the benchmark
// times.
func resilientReads(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	kv, caller := mkKV(env)
	r := store.NewResilient(env, kv, store.DefaultResilienceConfig())
	env.Go(func() {
		if _, err := r.Write(caller, "k", store.Blob{Size: 64 << 10}, nil, caller); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, _, err := r.Read(caller, "k"); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return env
}

// BenchmarkResilientRead measures one deadline-bounded attempt (its own
// process, a future, a timed wait) around a cache read.
func BenchmarkResilientRead(b *testing.B) {
	b.ReportAllocs()
	env := resilientReads(b, b.N)
	b.ResetTimer()
	env.Run()
}

// TestResilientReadAllocCeiling pins BenchmarkResilientRead's
// allocations per op, not rounded: the call record an attempt uses is
// recycled once answered and carries the op's arguments, and the
// cluster read allocates nothing. What is left is set-up: the cluster,
// and the timers of the dead deadlines an OpTimeout's worth of answered
// reads leave in the event heap (≈ 1 600, each recycled when its
// instant comes), which 100 000 reads amortise to ≈ 0.02.
func TestResilientReadAllocCeiling(t *testing.T) {
	const n = 100000
	env := resilientReads(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env.Run()
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / n; got > 0.05 {
		t.Errorf("Resilient.Read: %.4f allocs/op, want at most 0.05", got)
	}
}
