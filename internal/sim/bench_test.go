package sim

import (
	"runtime"
	"testing"
	"time"
)

// The scheduler benchmarks below are each a set-up function of n ops
// that returns an Env ready to Run, so that the allocation ceilings in
// TestSchedulerAllocCeilings measure exactly what the benchmarks time.

// sleepChain is n back-to-back Sleeps in one process.
func sleepChain(n int) *Env {
	env := NewEnv(1)
	env.Go(func() {
		for i := 0; i < n; i++ {
			env.Sleep(time.Microsecond)
		}
	})
	return env
}

// afterChain is n self-rescheduling After callbacks.
func afterChain(n int) *Env {
	env := NewEnv(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	return env
}

// thenChain is n self-rescheduling Then continuations.
func thenChain(n int) *Env {
	env := NewEnv(1)
	count := 0
	var step func()
	step = func() {
		if count++; count < n {
			env.Then(time.Microsecond, step)
		}
	}
	env.Then(time.Microsecond, step)
	return env
}

// thenChainBesideCallbacks is thenChain beside what a platform keeps
// pending while it works: 600 After timers 600 s out, as many as
// macro24's idle sandboxes waiting out their keep-alive, and 300 wait
// deadlines whose waits were answered at once. Their 300 waiters are
// the run's only allocations.
func thenChainBesideCallbacks(n int) *Env {
	env := thenChain(n)
	idle := func() {}
	for i := 0; i < 600; i++ {
		env.After(600*time.Second+time.Duration(i)*time.Millisecond, idle)
	}
	f := NewFuture[int](env)
	answer := func() { f.Set(1) }
	env.Go(func() {
		for i := 0; i < 300; i++ {
			env.Then(0, answer)
			f.WaitTimeout(600*time.Second + time.Duration(i)*time.Millisecond)
			f.Reset()
		}
	})
	return env
}

// batchWakeup is 64 processes sleeping to the same instants, n/64+1
// rounds each.
func batchWakeup(n int) *Env {
	env := NewEnv(1)
	const fan = 64
	rounds := n/fan + 1
	for i := 0; i < fan; i++ {
		env.Go(func() {
			for r := 0; r < rounds; r++ {
				env.Sleep(time.Microsecond) // all fan sleepers share each timestamp
			}
		})
	}
	return env
}

// futureRoundTrips is n Future set/wait handoffs, each to a fresh
// process.
func futureRoundTrips(n int) *Env {
	env := NewEnv(1)
	env.Go(func() {
		for i := 0; i < n; i++ {
			f := NewFuture[int](env)
			env.Go(func() { f.Set(1) })
			f.Wait()
		}
	})
	return env
}

// benchRun times Run of the Env setup builds for b.N ops.
func benchRun(b *testing.B, setup func(n int) *Env) {
	env := setup(b.N)
	b.ResetTimer()
	env.Run()
}

// BenchmarkSleepEvent measures the scheduler's per-event cost.
func BenchmarkSleepEvent(b *testing.B) { benchRun(b, sleepChain) }

// BenchmarkAfterCallback measures callback dispatch (a
// self-rescheduling chain, like keepalive and eviction timers in the
// platform).
func BenchmarkAfterCallback(b *testing.B) { benchRun(b, afterChain) }

// BenchmarkThenChain measures continuation dispatch (a chain of
// bookings, like a replication round in the store).
func BenchmarkThenChain(b *testing.B) { benchRun(b, thenChain) }

// BenchmarkThenChainBesideCallbacks measures continuation dispatch
// beside a standing population of far timers, as in a platform whose
// idle sandboxes each hold a keep-alive timer.
func BenchmarkThenChainBesideCallbacks(b *testing.B) { benchRun(b, thenChainBesideCallbacks) }

// BenchmarkBatchWakeup measures equal-timestamp fan-out: many
// processes sleeping to the same instant, each handing off to the next
// (one coroutine switch per event, never a self-wake).
func BenchmarkBatchWakeup(b *testing.B) { benchRun(b, batchWakeup) }

// BenchmarkFutureRoundTrip measures a set/wait handoff between two
// processes.
func BenchmarkFutureRoundTrip(b *testing.B) { benchRun(b, futureRoundTrips) }

// TestSchedulerAllocCeilings pins the allocations per op of the
// benchmarks above: the heap allocations of Run divided by the number
// of ops, not rounded, since an allocation every other op (a queue
// reslice that regrows) must show. At 10 000 ops the Env's set-up and
// its heap's growth amortise to a few thousandths, BatchWakeup's 64
// coroutines to 0.1 and ThenChainBesideCallbacks' 300 waiters to 0.03.
func TestSchedulerAllocCeilings(t *testing.T) {
	const n = 10000
	for _, c := range []struct {
		name    string
		setup   func(n int) *Env
		ceiling float64
	}{
		{"SleepEvent", sleepChain, 0.05},
		{"AfterCallback", afterChain, 0.05},
		{"ThenChain", thenChain, 0.05},
		{"ThenChainBesideCallbacks", thenChainBesideCallbacks, 0.05},
		{"BatchWakeup", batchWakeup, 0.15},
		{"FutureRoundTrip", futureRoundTrips, 2.05},
	} {
		env := c.setup(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env.Run()
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / n; got > c.ceiling {
			t.Errorf("%s: %.3f allocs/op, want at most %.2f", c.name, got, c.ceiling)
		}
	}
}
