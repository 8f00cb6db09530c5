package kvstore

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"ofc/internal/sim"
	"ofc/internal/simnet"
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

// benchKeys are the 1024 keys the continuation benchmarks cycle over,
// built once so that the benchmarks themselves allocate nothing.
var benchKeys = func() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}()

// clusterWriteThens is n replicated 64 KB writes cycling over 1024
// keys, each started by the previous one's done: a chain of
// continuations from first to last, with no process.
func clusterWriteThens(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	i := 0
	var next func(WriteResult)
	next = func(r WriteResult) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		if i++; i <= n {
			c.WriteThen(1, benchKeys[i%1024], Synthetic(64<<10), nil, 1, next)
		}
	}
	env.After(0, func() { next(WriteResult{}) })
	return env
}

// clusterReadThens is one write and n local reads of it, each read
// started by the previous one's done.
func clusterReadThens(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	i := 0
	var next func(ReadResult)
	next = func(r ReadResult) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		if i++; i <= n {
			c.ReadThen(1, "k", next)
		}
	}
	env.Go(func() {
		c.Write(1, "k", Synthetic(64<<10), nil, 1)
		next(ReadResult{})
	})
	return env
}

// clusterMarkCleans is one write and n MarkCleans of it from a remote
// caller.
func clusterMarkCleans(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(64<<10), &State{Dirty: true}, 1)
		for i := 0; i < n; i++ {
			if err := c.MarkClean(2, "k", 0); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return env
}

// multiKeys are the batches of the multi-key benchmarks: four keys,
// mastered on four nodes when written from their own node.
var multiKeys = benchKeys[:4]

// clusterReadMultis is one write of each of multiKeys, each from its
// own node, and n ReadMultis of all four from node 1.
func clusterReadMultis(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		for i, k := range multiKeys {
			c.Write(simnet.NodeID(i), k, Synthetic(16<<10), nil, simnet.NodeID(i))
		}
		for i := 0; i < n; i++ {
			for _, r := range c.ReadMulti(1, multiKeys) {
				if r.Err != nil {
					tb.Fatal(r.Err)
				}
			}
		}
	})
	return env
}

// clusterWriteMultis is n WriteMultis of four 16 KB items from node 1,
// cycling over 1024 keys in batches built once.
func clusterWriteMultis(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	batches := make([][]WriteItem, len(benchKeys)/4)
	for i := range batches {
		for _, k := range benchKeys[4*i : 4*i+4] {
			batches[i] = append(batches[i], WriteItem{Key: k, Blob: Synthetic(16 << 10)})
		}
	}
	env.Go(func() {
		for i := 0; i < n; i++ {
			for _, r := range c.WriteMulti(1, batches[i%len(batches)], 1) {
				if r.Err != nil {
					tb.Fatal(r.Err)
				}
			}
		}
	})
	return env
}

// churnLive is the number of keys clusterKeyChurn keeps in the store.
const churnLive = 2000

// clusterKeyChurn is n unique keys, each written (4 KB), read back and,
// churnLive keys later, evicted, as a chain of continuations: the store
// holds churnLive keys throughout while n pass through it, as a cache
// whose working set moves does. The key is built per op.
func clusterKeyChurn(tb testing.TB, n int) *sim.Env {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	ring := make([]string, churnLive) // the live keys, by op number
	var buf []byte
	i := 0
	var write func()
	read := func(r ReadResult) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		i++
		write()
	}
	wrote := func(r WriteResult) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		c.ReadThen(1, ring[i%churnLive], read)
	}
	write = func() {
		if i >= n {
			return
		}
		slot := &ring[i%churnLive]
		if *slot != "" {
			if err := c.Evict(*slot, 0); err != nil {
				tb.Fatal(err)
			}
		}
		buf = strconv.AppendInt(append(buf[:0], 'c'), int64(i), 10)
		*slot = string(buf)
		c.WriteThen(1, *slot, Synthetic(4<<10), nil, 1, wrote)
	}
	env.After(0, write)
	return env
}

// BenchmarkClusterKeyChurn measures a write, a read and an eviction of
// unique keys at a steady churnLive live: its ns/op must not grow with
// the number of keys that have passed through.
func BenchmarkClusterKeyChurn(b *testing.B) {
	b.ReportAllocs()
	env := clusterKeyChurn(b, b.N)
	b.ResetTimer()
	env.Run()
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

// BenchmarkClusterWriteThen measures a replicated write as a chain of
// continuations, with no process parked on it.
func BenchmarkClusterWriteThen(b *testing.B) {
	b.ReportAllocs()
	env := clusterWriteThens(b, b.N)
	b.ResetTimer()
	env.Run()
}

// BenchmarkClusterReadThen measures a cache read as a chain of
// continuations, with no process parked on it.
func BenchmarkClusterReadThen(b *testing.B) {
	b.ReportAllocs()
	env := clusterReadThens(b, b.N)
	b.ResetTimer()
	env.Run()
}

// TestClusterOpAllocCeilings pins the allocations per op of the
// set-ups in this file, the benchmarks' and the batch and clean ones,
// counted as testing.Benchmark counts them: the
// heap allocations of Run divided by the number of ops, rounded down. A
// read allocates nothing, parked on or not; a write allocates the
// master's object record, and the rest of the blocking Write's count is
// the benchmark's own fmt.Sprintf of the key: the op record, its waiter,
// the replication round, its continuations and its disk flushes are
// pooled, a placement is a value, the id tables grow only with the live
// key set and the log's head reuses the segments the cleaner frees. Key
// churn allocates the object record and the key the benchmark builds:
// interning, placing and evicting a new key allocate nothing. The log's
// own put, cleaning included, allocates nothing. A MarkClean allocates
// nothing, and a batch only its result slice and, for a write, one
// object record per item: the op record, its groups and its id and
// placement buffers are pooled.
func TestClusterOpAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		setup   func(tb testing.TB, n int) *sim.Env
		n       int
		ceiling uint64
	}{
		{"Read", clusterReads, 10000, 0},
		{"Write", clusterWrites, 50000, 2},
		{"ReadThen", clusterReadThens, 10000, 0},
		{"WriteThen", clusterWriteThens, 50000, 1},
		{"KeyChurn", clusterKeyChurn, 50000, 2},
		{"MarkClean", clusterMarkCleans, 10000, 0},
		{"ReadMulti", clusterReadMultis, 10000, 1},
		{"WriteMulti", clusterWriteMultis, 20000, 5},
		{"LogPut", logPuts, 200000, 0},
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

// logPuts is n overwrites of 64 KB objects cycling over 512 keys, the
// cleaner holding the log's allocated bytes under 1 GB. The keys and
// objects are built first, and the puts run until the cleaner has
// taken its first segments, so what Run does is the steady state.
func logPuts(tb testing.TB, n int) *sim.Env {
	l := newObjLog(16<<20, newKeyTable())
	objs := make([]*object, 512)
	for i := range objs {
		objs[i] = mkObj(64 << 10)
	}
	put := func(i int) {
		l.putKey(benchKeys[i%512], objs[i%512])
		if l.alloc > 1<<30 {
			l.clean(l.live)
		}
	}
	for i := 0; l.cleaned == 0; i++ {
		put(i)
	}
	env := sim.NewEnv(1)
	env.After(0, func() {
		for i := 0; i < n; i++ {
			put(i)
		}
	})
	return env
}

// BenchmarkLogPut measures the raw log-structured engine.
func BenchmarkLogPut(b *testing.B) {
	b.ReportAllocs()
	env := logPuts(b, b.N)
	b.ResetTimer()
	env.Run()
}

// BenchmarkMigrateToBackup measures the promotion path.
func BenchmarkMigrateToBackup(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		for i := 0; i < b.N; i++ {
			if err := c.MigrateToBackup("k", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ResetTimer()
	env.Run()
}
