package kvstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ofc/internal/sim"
)

// The cluster benchmarks below are each a set-up function of n ops
// that returns an Env ready to Run, so that TestClusterOpAllocCeilings
// measures exactly what the benchmarks time.

// clusterWrites is n replicated 64 KB writes cycling over 1024 keys.
func clusterWrites(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		for i := 0; i < n; i++ {
			if _, err := c.Write(1, fmt.Sprintf("k%d", i%1024), Synthetic(64<<10), nil, 1); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return env
}

// clusterReads is one write and n local reads of it.
func clusterReads(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(64<<10), nil, 1)
		for i := 0; i < n; i++ {
			if _, _, err := c.Read(1, "k"); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return env
}

// BenchmarkClusterWrite measures the host cost of a replicated durable
// write through the simulated fabric.
func BenchmarkClusterWrite(b *testing.B) {
	b.ReportAllocs()
	env := clusterWrites(b, b.N)
	b.ResetTimer()
	env.Run()
}

// BenchmarkClusterRead measures the host cost of a cache read.
func BenchmarkClusterRead(b *testing.B) {
	b.ReportAllocs()
	env := clusterReads(b, b.N)
	b.ResetTimer()
	env.Run()
}

// TestClusterOpAllocCeilings pins the allocations per op of the two
// benchmarks above, counted as testing.Benchmark counts them: the heap
// allocations of Run divided by the number of ops, rounded down. A read
// allocates nothing; a write's count includes the benchmark's own
// fmt.Sprintf of the key.
func TestClusterOpAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		setup   func(tb testing.TB, n int) *sim.Env
		n       int
		ceiling uint64
	}{
		{"Read", clusterReads, 10000, 0},
		{"Write", clusterWrites, 50000, 11},
	} {
		env := c.setup(t, c.n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env.Run()
		runtime.ReadMemStats(&after)
		if got := (after.Mallocs - before.Mallocs) / uint64(c.n); got > c.ceiling {
			if lossyPools() {
				t.Skipf("%s: %d allocs/op with sync.Pool dropping items (race detector): fmt.Sprintf's pooled printer counts as an allocation", c.name, got)
			}
			t.Errorf("%s: %d allocs/op, want at most %d", c.name, got, c.ceiling)
		}
	}
}

// lossyPools reports whether sync.Pool is discarding what it is handed,
// which it does at random under the race detector.
func lossyPools() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// BenchmarkLogPut measures the raw log-structured engine.
func BenchmarkLogPut(b *testing.B) {
	b.ReportAllocs()
	l := newObjLog(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.put(fmt.Sprintf("k%d", i%512), mkObj(64<<10))
		if l.alloc > 1<<30 {
			l.clean(l.live)
		}
	}
}

// BenchmarkMigrateToBackup measures the promotion path.
func BenchmarkMigrateToBackup(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		for i := 0; i < b.N; i++ {
			if err := c.MigrateToBackup("k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ResetTimer()
	env.Run()
}
