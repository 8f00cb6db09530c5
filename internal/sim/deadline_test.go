package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitTimeoutSetWins: when Set comes first the deadline is not an
// event — it does not count, does not advance the clock, and Run ends
// at the Set time instead of idling to the dead deadline.
func TestWaitTimeoutSetWins(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	env.Go(func() {
		v, ok := f.WaitTimeout(100 * time.Millisecond)
		if !ok || v != 7 || env.Now() != time.Millisecond {
			t.Errorf("WaitTimeout = (%d, %v) at %v, want (7, true) at 1ms", v, ok, env.Now())
		}
	})
	env.Go(func() {
		env.Sleep(time.Millisecond)
		f.Set(7)
	})
	if end := env.Run(); end != time.Millisecond {
		t.Errorf("Run returned %v, want the Set time 1ms", end)
	}
	if env.Events() != 1 {
		t.Errorf("Events() = %d, want 1 (the setter's sleep)", env.Events())
	}
	if len(env.heap) != 0 {
		t.Errorf("dead deadline left behind: %v", env)
	}
}

// TestWaitTimeoutDeadlineWins: a timed-out wait returns at its
// deadline, the operation keeps running in the background, and its
// eventual Set still resolves the future for every other waiter.
func TestWaitTimeoutDeadlineWins(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	var opDone, plainGot atomic.Int64
	env.Go(func() { // the operation
		env.Sleep(50 * time.Millisecond)
		opDone.Store(int64(env.Now()))
		f.Set(7)
	})
	env.Go(func() {
		if v, ok := f.WaitTimeout(10 * time.Millisecond); ok || v != 0 || env.Now() != 10*time.Millisecond {
			t.Errorf("WaitTimeout = (%d, %v) at %v, want (0, false) at 10ms", v, ok, env.Now())
		}
		if f.Done() {
			t.Error("future resolved by its own timeout")
		}
		// A second deadline on the same future, this one beaten by Set.
		if v, ok := f.WaitTimeout(time.Second); !ok || v != 7 || env.Now() != 50*time.Millisecond {
			t.Errorf("second WaitTimeout = (%d, %v) at %v, want (7, true) at 50ms", v, ok, env.Now())
		}
	})
	env.Go(func() {
		plainGot.Store(int64(f.Wait()))
		if env.Now() != 50*time.Millisecond {
			t.Errorf("plain waiter resumed at %v, want 50ms", env.Now())
		}
	})
	if end := env.Run(); end != 50*time.Millisecond {
		t.Errorf("Run returned %v, want 50ms", end)
	}
	if opDone.Load() != int64(50*time.Millisecond) || plainGot.Load() != 7 {
		t.Errorf("op finished at %v, plain waiter got %d", time.Duration(opDone.Load()), plainGot.Load())
	}
	if env.Events() != 2 {
		t.Errorf("Events() = %d, want 2 (the op's sleep and one fired deadline)", env.Events())
	}
}

// TestWaitTimeoutLoneWaiter: with nothing else runnable the waiter's
// own deadline is the next event and it resumes itself; a negative
// duration arms no deadline at all.
func TestWaitTimeoutLoneWaiter(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	env.Go(func() {
		if _, ok := f.WaitTimeout(10 * time.Millisecond); ok || env.Now() != 10*time.Millisecond {
			t.Errorf("lone WaitTimeout ok=%v at %v, want timeout at 10ms", ok, env.Now())
		}
		env.After(5*time.Millisecond, func() { f.Set(3) })
		if v, ok := f.WaitTimeout(-1); !ok || v != 3 {
			t.Errorf("WaitTimeout(-1) = (%d, %v), want (3, true)", v, ok)
		}
	})
	if end := env.Run(); end != 15*time.Millisecond {
		t.Errorf("Run returned %v, want 15ms", end)
	}
	if env.Events() != 2 {
		t.Errorf("Events() = %d, want 2", env.Events())
	}
}

// TestWaitTimeoutDroppedOnStop: like an After callback, a deadline
// pending at the stop point never fires; the wait still ends when the
// draining operation sets the future.
func TestWaitTimeoutDroppedOnStop(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	env.Go(func() {
		if v, ok := f.WaitTimeout(time.Second); !ok || v != 9 {
			t.Errorf("WaitTimeout across Stop = (%d, %v), want (9, true)", v, ok)
		}
	})
	env.Go(func() {
		env.Sleep(time.Hour) // woken by the drain, clock frozen
		f.Set(9)
	})
	env.Go(func() {
		env.Sleep(time.Millisecond)
		env.Stop()
	})
	if end := env.Run(); end != time.Millisecond {
		t.Errorf("Run returned %v, want the stop time 1ms", end)
	}
}

// TestWaitTimeoutStress races Set against the deadline on many
// futures at once — operations shorter than, equal to and longer than
// the deadline — and checks that every wait resumes exactly once with
// a consistent answer. make test-race runs it under the race detector
// on one and several Ps.
func TestWaitTimeoutStress(t *testing.T) {
	env := NewEnv(5)
	const (
		waits    = 3000
		deadline = 10 * time.Millisecond
	)
	var returned, timedOut atomic.Int64
	futures := make([]*Future[int], waits)
	for i := range futures {
		i := i
		f := NewFuture[int](env)
		futures[i] = f
		opTime := time.Duration(5+i%11) * time.Millisecond // 5..15ms around the 10ms deadline
		env.Go(func() {
			start := env.Now()
			env.Go(func() {
				env.Sleep(opTime)
				f.Set(i)
			})
			v, ok := f.WaitTimeout(deadline)
			switch {
			case ok && (v != i || env.Now()-start != opTime || opTime > deadline):
				t.Errorf("wait %d: got %d after %v (op %v)", i, v, env.Now()-start, opTime)
			case !ok && (env.Now()-start != deadline || opTime < deadline):
				t.Errorf("wait %d: timed out after %v (op %v)", i, env.Now()-start, opTime)
			}
			if !ok {
				timedOut.Add(1)
			}
			returned.Add(1)
		})
	}
	if end := env.Run(); end != 15*time.Millisecond {
		t.Errorf("Run returned %v, want 15ms", end)
	}
	if returned.Load() != waits {
		t.Errorf("%d/%d waits returned", returned.Load(), waits)
	}
	if timedOut.Load() == 0 || timedOut.Load() == waits {
		t.Errorf("%d/%d waits timed out: the race was never run both ways", timedOut.Load(), waits)
	}
	for i, f := range futures {
		if !f.Done() {
			t.Fatalf("future %d never resolved: its operation did not keep running", i)
		}
	}
}
