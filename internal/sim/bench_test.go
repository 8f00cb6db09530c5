package sim

import (
	"testing"
	"time"
)

// BenchmarkSleepEvent measures the scheduler's per-event cost.
func BenchmarkSleepEvent(b *testing.B) {
	env := NewEnv(1)
	env.Go(func() {
		for i := 0; i < b.N; i++ {
			env.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkAfterCallback measures callback dispatch through the
// bounded worker pool (a self-rescheduling chain, like keepalive and
// eviction timers in the platform).
func BenchmarkAfterCallback(b *testing.B) {
	env := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	b.ResetTimer()
	env.Run()
}

// BenchmarkBatchWakeup measures equal-timestamp fan-out: many
// processes sleeping to the same instant, each handing off to the next
// (one goroutine switch per event, never a self-wake).
func BenchmarkBatchWakeup(b *testing.B) {
	env := NewEnv(1)
	const fan = 64
	rounds := b.N/fan + 1
	for i := 0; i < fan; i++ {
		env.Go(func() {
			for r := 0; r < rounds; r++ {
				env.Sleep(time.Microsecond) // all fan sleepers share each timestamp
			}
		})
	}
	b.ResetTimer()
	env.Run()
}

// BenchmarkFutureRoundTrip measures a set/wait handoff between two
// processes.
func BenchmarkFutureRoundTrip(b *testing.B) {
	env := NewEnv(1)
	env.Go(func() {
		for i := 0; i < b.N; i++ {
			f := NewFuture[int](env)
			env.Go(func() { f.Set(1) })
			f.Wait()
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkQueueSendRecv measures producer/consumer throughput.
func BenchmarkQueueSendRecv(b *testing.B) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	env.Go(func() {
		for i := 0; i < b.N; i++ {
			q.Send(i)
		}
		q.Close()
	})
	env.Go(func() {
		for {
			if _, ok := q.Recv(); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	env.Run()
}
