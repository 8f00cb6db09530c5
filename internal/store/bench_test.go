package store_test

import (
	"fmt"
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
	kv, caller := newKV(env)
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

// BenchmarkResilientRead measures one deadline-bounded attempt (the
// read's chain of continuations raced against a timed wait on a
// future) around a cache read.
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
// and the timers of the dead deadlines an opTimeout's worth of answered
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

// resilientWrites is n replicated 64 KB writes through a Resilient over
// the kvstore cluster, cycling over 1024 keys built beforehand: the
// proxy's put path minus the proxy, measured as resilientReads is.
func resilientWrites(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	kv, caller := newKV(env)
	r := store.NewResilient(env, kv, store.DefaultResilienceConfig())
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	env.Go(func() {
		for i := 0; i < n; i++ {
			if _, err := r.Write(caller, keys[i%len(keys)], store.Blob{Size: 64 << 10}, nil, caller); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return env
}

// BenchmarkResilientWrite measures one deadline-bounded attempt around
// a replicated cache write.
func BenchmarkResilientWrite(b *testing.B) {
	b.ReportAllocs()
	env := resilientWrites(b, b.N)
	b.ResetTimer()
	env.Run()
}

// TestResilientWriteAllocCeiling pins BenchmarkResilientWrite's
// allocations per op, not rounded: the master's log entry, which every
// write allocates (TestClusterOpAllocCeilings), and nothing of the
// attempt, whose call record, op record and replication
// round are pooled. What is left is the log growing to
// its 1024 keys and rolling a segment every 256 writes, ≈ 0.11 over
// 50 000 writes (a bare cluster write pays the same), and the dead
// deadlines, as in TestResilientReadAllocCeiling.
func TestResilientWriteAllocCeiling(t *testing.T) {
	const n = 50000
	env := resilientWrites(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env.Run()
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / n; got > 1.15 {
		t.Errorf("Resilient.Write: %.4f allocs/op, want at most 1.15", got)
	}
}
