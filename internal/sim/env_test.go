package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var at Time
	env.Go(func() {
		env.Sleep(10 * time.Millisecond)
		at = env.Now()
	})
	end := env.Run()
	if at != 10*time.Millisecond {
		t.Errorf("woke at %v, want 10ms", at)
	}
	if end != 10*time.Millisecond {
		t.Errorf("Run returned %v, want 10ms", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	env := NewEnv(1)
	ran := 0
	env.Go(func() {
		env.Sleep(0)
		ran++
		env.Sleep(-5 * time.Second)
		ran++
	})
	env.Run()
	if ran != 2 {
		t.Fatalf("ran=%d, want 2", ran)
	}
	if env.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleeps", env.Now())
	}
}

func TestTimerOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i, d := range []time.Duration{30, 10, 20} {
		i, d := i, d
		env.Go(func() {
			env.Sleep(d * time.Millisecond)
			order = append(order, i)
		})
	}
	env.Run()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []int
	root := func() {
		for i := 0; i < 5; i++ {
			i := i
			env.After(10*time.Millisecond, func() {
				order = append(order, i)
			})
		}
	}
	env.Go(root)
	env.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("same-instant order=%v, want FIFO", order)
		}
	}
}

func TestAfterRunsAtRightTime(t *testing.T) {
	env := NewEnv(1)
	var at Time
	env.After(42*time.Millisecond, func() { at = env.Now() })
	env.Run()
	if at != 42*time.Millisecond {
		t.Errorf("After fired at %v", at)
	}
}

func TestNestedSpawns(t *testing.T) {
	env := NewEnv(1)
	var count atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		env.Sleep(time.Millisecond)
		for i := 0; i < 2; i++ {
			d := depth
			env.Go(func() { spawn(d - 1) })
		}
	}
	env.Go(func() { spawn(5) })
	env.Run()
	// 1 + 2 + 4 + 8 + 16 + 32 = 63 processes
	if count.Load() != 63 {
		t.Errorf("count=%d, want 63", count.Load())
	}
}

func TestHorizonStopsRun(t *testing.T) {
	env := NewEnv(1)
	env.SetHorizon(100 * time.Millisecond)
	ticks := 0
	env.Every(30*time.Millisecond, func() bool {
		ticks++
		return true
	})
	end := env.Run()
	if end != 100*time.Millisecond {
		t.Errorf("end=%v, want horizon 100ms", end)
	}
	if ticks != 3 { // 30, 60, 90
		t.Errorf("ticks=%d, want 3", ticks)
	}
}

func TestEveryStopsWhenFalse(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	env.Every(time.Second, func() bool {
		ticks++
		return ticks < 4
	})
	env.Run()
	if ticks != 4 {
		t.Errorf("ticks=%d, want 4", ticks)
	}
}

func TestFutureSetBeforeWait(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	got := 0
	env.Go(func() {
		f.Set(7)
		got = f.Wait()
	})
	env.Run()
	if got != 7 {
		t.Errorf("got=%d", got)
	}
}

func TestFutureWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[string](env)
	var got atomic.Int64
	for i := 0; i < 10; i++ {
		env.Go(func() {
			if f.Wait() == "done" {
				got.Add(1)
			}
		})
	}
	env.Go(func() {
		env.Sleep(5 * time.Millisecond)
		f.Set("done")
	})
	env.Run()
	if got.Load() != 10 {
		t.Errorf("waiters woken=%d, want 10", got.Load())
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	env.Go(func() {
		f.Set(1)
		defer func() {
			if recover() == nil {
				t.Error("second Set did not panic")
			}
		}()
		f.Set(2)
	})
	env.Run()
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	var done atomic.Int64
	var joinedAt Time
	for i := 1; i <= 5; i++ {
		i := i
		wg.Add(1)
		env.Go(func() {
			env.Sleep(time.Duration(i) * time.Millisecond)
			done.Add(1)
			wg.Done()
		})
	}
	env.Go(func() {
		wg.Wait()
		joinedAt = env.Now()
	})
	env.Run()
	if done.Load() != 5 {
		t.Errorf("done=%d", done.Load())
	}
	if joinedAt != 5*time.Millisecond {
		t.Errorf("joined at %v, want 5ms", joinedAt)
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var got []int
	env.Go(func() {
		for {
			v, ok := q.Recv()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	env.Go(func() {
		for i := 0; i < 5; i++ {
			env.Sleep(time.Millisecond)
			q.Send(i)
		}
		q.Close()
	})
	env.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want ordered", got)
		}
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var total atomic.Int64
	for i := 0; i < 3; i++ {
		env.Go(func() {
			for {
				v, ok := q.Recv()
				if !ok {
					return
				}
				total.Add(int64(v))
				env.Sleep(time.Millisecond)
			}
		})
	}
	env.Go(func() {
		for i := 1; i <= 10; i++ {
			q.Send(i)
		}
		env.Sleep(time.Second)
		q.Close()
	})
	env.Run()
	if total.Load() != 55 {
		t.Errorf("total=%d, want 55", total.Load())
	}
}

func TestStop(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	env.Every(time.Second, func() bool {
		ticks++
		if ticks == 3 {
			env.Stop()
		}
		return true
	})
	env.Run()
	if ticks != 3 {
		t.Errorf("ticks=%d, want 3", ticks)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Time, float64) {
		env := NewEnv(42)
		rng := env.NewRand()
		var v float64
		env.Go(func() {
			for i := 0; i < 100; i++ {
				env.Sleep(time.Duration(1+int(rng.Float64()*10)) * time.Millisecond)
				v += rng.Float64()
			}
		})
		return env.Run(), v
	}
	t1, v1 := run()
	t2, v2 := run()
	if t1 != t2 || v1 != v2 {
		t.Errorf("non-deterministic replay: (%v,%v) vs (%v,%v)", t1, v1, t2, v2)
	}
}

// Property: for any set of sleep durations, Run's final time equals the
// maximum requested sleep, and each process observes exactly its own
// duration on the clock.
func TestPropertySleepDurations(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		env := NewEnv(7)
		max := time.Duration(0)
		ok := true
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > max {
				max = d
			}
			env.Go(func() {
				env.Sleep(d)
				if env.Now() < d {
					ok = false
				}
			})
		}
		end := env.Run()
		return ok && end == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
