package simnet

import (
	"runtime"
	"testing"

	"ofc/internal/sim"
)

// The benchmarks below are each a set-up function of n ops that returns
// an Env ready to Run, so that TestFabricAllocCeilings measures exactly
// what the benchmarks time.

// transfers is n back-to-back 4 KiB transfers between two nodes of a
// healthy network, or, with faulted, of a network with fault state
// injected elsewhere, which forces the locked fault lookup on every
// transfer.
func transfers(n int, faulted bool) *sim.Env {
	env := sim.NewEnv(1)
	net := New(env)
	a := net.AddNode("a").ID
	c := net.AddNode("b").ID
	if faulted {
		net.SetNodeDown(net.AddNode("c").ID, true)
	}
	env.Go(func() {
		for i := 0; i < n; i++ {
			net.Transfer(a, c, 4096)
		}
	})
	return env
}

// diskWrites is n back-to-back 4 KiB writes to one node's disk.
func diskWrites(n int) *sim.Env {
	env := sim.NewEnv(1)
	nd := New(env).AddNode("a")
	env.Go(func() {
		for i := 0; i < n; i++ {
			nd.DiskWrite(4096)
		}
	})
	return env
}

func benchRun(b *testing.B, env *sim.Env) {
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkTransfer measures the per-transfer cost of the fabric hot
// path on a healthy network: fault fast path, lock-free node lookup,
// one booking per NIC, atomic traffic counters.
func BenchmarkTransfer(b *testing.B) { benchRun(b, transfers(b.N, false)) }

// BenchmarkTransferFaulted measures the same path with fault state
// injected elsewhere in the fabric.
func BenchmarkTransferFaulted(b *testing.B) { benchRun(b, transfers(b.N, true)) }

// BenchmarkDiskWrite measures the per-op disk path.
func BenchmarkDiskWrite(b *testing.B) { benchRun(b, diskWrites(b.N)) }

// TestFabricAllocCeilings pins the allocations per op of the
// benchmarks above, counted as testing.Benchmark counts them: the heap
// allocations of Run divided by the number of ops, rounded down. A
// transfer and a disk operation allocate nothing.
func TestFabricAllocCeilings(t *testing.T) {
	const n = 10000
	for _, c := range []struct {
		name string
		env  *sim.Env
	}{
		{"Transfer", transfers(n, false)},
		{"TransferFaulted", transfers(n, true)},
		{"DiskWrite", diskWrites(n)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.env.Run()
		runtime.ReadMemStats(&after)
		if got := (after.Mallocs - before.Mallocs) / n; got > 0 {
			t.Errorf("%s: %d allocs/op, want 0", c.name, got)
		}
	}
}
