package simnet

import (
	"runtime"
	"testing"

	"ofc/internal/sim"
)

// The benchmarks below are each a set-up function of n ops that returns
// an Env ready to Run, so that TestFabricAllocCeilings measures exactly
// what the benchmarks time.

// pair is a network of two nodes, healthy or, with faulted, with fault
// state injected elsewhere, which forces the locked fault lookup on
// every transfer.
func pair(faulted bool) (*sim.Env, *Network, NodeID, NodeID) {
	env := sim.NewEnv(1)
	net := New(env)
	a := net.AddNode("a").ID
	c := net.AddNode("b").ID
	if faulted {
		net.SetNodeDown(net.AddNode("c").ID, true)
	}
	return env, net, a, c
}

// transfers is n back-to-back 4 KiB transfers between the two nodes of
// a pair, made by one process.
func transfers(n int, faulted bool) *sim.Env {
	env, net, a, c := pair(faulted)
	env.Go(func() {
		for i := 0; i < n; i++ {
			net.Transfer(a, c, 4096)
		}
	})
	return env
}

// transfersThen is the same n transfers made by TransferThen, each
// started from the continuation of the one before, with no process.
func transfersThen(n int, faulted bool) *sim.Env {
	env, net, a, c := pair(faulted)
	var next func(error)
	next = func(error) {
		if n > 0 {
			n--
			net.TransferThen(a, c, 4096, next)
		}
	}
	env.After(0, func() { next(nil) })
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

// diskWritesThen is the same n writes made by DiskWriteThen, each from
// the continuation of the one before.
func diskWritesThen(n int) *sim.Env {
	env := sim.NewEnv(1)
	nd := New(env).AddNode("a")
	var next func()
	next = func() {
		if n > 0 {
			n--
			nd.DiskWriteThen(4096, next)
		}
	}
	env.After(0, next)
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

// BenchmarkTransferThen measures the continuation form of a healthy
// transfer: the same bookings, each stage a Then callback.
func BenchmarkTransferThen(b *testing.B) { benchRun(b, transfersThen(b.N, false)) }

// BenchmarkTransferThenFaulted measures it with fault state injected
// elsewhere in the fabric.
func BenchmarkTransferThenFaulted(b *testing.B) { benchRun(b, transfersThen(b.N, true)) }

// BenchmarkDiskWrite measures the per-op disk path.
func BenchmarkDiskWrite(b *testing.B) { benchRun(b, diskWrites(b.N)) }

// BenchmarkDiskWriteThen measures the continuation form of a disk write.
func BenchmarkDiskWriteThen(b *testing.B) { benchRun(b, diskWritesThen(b.N)) }

// TestFabricAllocCeilings pins the allocations per op of the
// benchmarks above, counted as testing.Benchmark counts them: the heap
// allocations of Run divided by the number of ops, rounded down. A
// transfer and a disk operation allocate nothing, in a process or as a
// chain of continuations.
func TestFabricAllocCeilings(t *testing.T) {
	const n = 10000
	for _, c := range []struct {
		name string
		env  *sim.Env
	}{
		{"Transfer", transfers(n, false)},
		{"TransferFaulted", transfers(n, true)},
		{"TransferThen", transfersThen(n, false)},
		{"TransferThenFaulted", transfersThen(n, true)},
		{"DiskWrite", diskWrites(n)},
		{"DiskWriteThen", diskWritesThen(n)},
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
