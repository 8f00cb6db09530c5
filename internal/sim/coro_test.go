package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunnableOrder pins the order inside the runnable queue (DESIGN.md
// §11): the most recently readied runs first, the one it displaces
// joins the tail of a FIFO, a spawn and a wake are readied alike, and
// everything runnable at an instant runs before the next timer.
func TestRunnableOrder(t *testing.T) {
	cases := []struct {
		name  string
		setup func(env *Env, log func(string))
		want  string
	}{
		{"spawn X, wake Y, spawn Z, block", func(env *Env, log func(string)) {
			f := NewFuture[int](env)
			env.Go(func() { f.Wait(); log("Y") })
			env.After(time.Millisecond, func() {
				env.Go(func() { log("X") })
				f.Set(0)
				env.Go(func() { log("Z") })
				env.Sleep(0)
				log("P")
			})
		}, "Z X Y P"},
		{"spawned before Run", func(env *Env, log func(string)) {
			for _, n := range []string{"A", "B", "C"} {
				env.Go(func() { log(n) })
			}
		}, "C A B"},
		{"one Set, three waiters", func(env *Env, log func(string)) {
			f := NewFuture[int](env)
			for _, n := range []string{"W1", "W2", "W3"} {
				env.After(0, func() { f.Wait(); log(n) })
			}
			env.After(time.Millisecond, func() { f.Set(0); log("S") })
		}, "S W3 W1 W2"},
		{"runnable before the next timer of the same instant", func(env *Env, log func(string)) {
			env.After(time.Millisecond, func() {
				env.Go(func() {
					log("G1")
					env.Go(func() { log("G2") })
				})
				log("T1")
			})
			env.After(time.Millisecond, func() { log("T2") })
		}, "T1 G1 G2 T2"},
		{"a displaced wake keeps its turn across the waker's exit", func(env *Env, log func(string)) {
			f := NewFuture[int](env)
			wg := NewWaitGroup(env)
			wg.Add(1)
			env.After(0, func() { f.Wait(); log("R") })
			env.After(0, func() { wg.Wait(); log("J") })
			env.After(time.Millisecond, func() {
				f.Set(1)
				wg.Done()
			})
		}, "J R"},
	}
	for _, c := range cases {
		env := NewEnv(1)
		var got []string
		c.setup(env, func(s string) { got = append(got, s) })
		env.Run()
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s: ran %q, want %q", c.name, s, c.want)
		}
	}
}

// goroutinesOver runs body inside a fresh environment and reports, over
// the count before the environment existed, the most goroutines seen at
// the probes body places and the number left when Run has returned.
// Both are upper bounds to test against: on several Ps the previous
// test's goroutine can still be unwinding when the count is taken.
func goroutinesOver(body func(env *Env, probe func())) (peak, left int) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	body(env, func() {
		if n := runtime.NumGoroutine() - before; n > peak {
			peak = n
		}
	})
	env.Run()
	return peak, runtime.NumGoroutine() - before
}

// TestChainsReuseOneCoroutine: a process that returns hosts the next
// callback or spawn on its own coroutine, and a retired coroutine is
// the next one used, so neither a long After chain nor a spawn-and-join
// loop grows the host's goroutine count.
func TestChainsReuseOneCoroutine(t *testing.T) {
	const n = 100000
	chain, left := goroutinesOver(func(env *Env, probe func()) {
		left := n
		var tick func()
		tick = func() {
			probe()
			if left--; left > 0 {
				env.After(time.Microsecond, tick)
			}
		}
		env.After(time.Microsecond, tick)
	})
	if chain > 1 || left > 0 {
		t.Errorf("After chain of %d callbacks ran on %d coroutines and left %d, want 1 and 0", n, chain, left)
	}
	join, left := goroutinesOver(func(env *Env, probe func()) {
		env.Go(func() {
			for i := 0; i < n; i++ {
				f := NewFuture[int](env)
				env.Go(func() { probe(); f.Set(i) })
				if f.Wait() != i {
					t.Errorf("iteration %d joined the wrong child", i)
				}
			}
		})
	})
	if join > 2 || left > 0 {
		t.Errorf("%d Go-then-Wait rounds ran on %d coroutines and left %d, want 2 (parent and one child, reused) and 0", n, join, left)
	}
}

// TestWaiterHostsContinuations: a process parked on the end of a chain
// of continuations runs the chain on its own coroutine, so a wait on a
// chain is no switch at all, and the steps run at the instants and in
// the order they would on any coroutine. A continuation that blocks
// there panics instead of parking the process that hosts it.
func TestWaiterHostsContinuations(t *testing.T) {
	const n = 10000
	var order []int
	peak, left := goroutinesOver(func(env *Env, probe func()) {
		env.Go(func() {
			for i := 0; i < n; i++ {
				f := NewFuture[int](env)
				start := env.Now()
				env.Then(time.Microsecond, func() {
					probe()
					if i < 2 {
						order = append(order, i, 1)
					}
					env.Then(time.Microsecond, func() { probe(); f.Set(i) })
				})
				if i < 2 {
					env.Then(time.Microsecond, func() { order = append(order, i, 2) })
				}
				if f.Wait() != i || env.Now() != start+2*time.Microsecond {
					t.Errorf("iteration %d: joined the wrong chain or at %v, want %v", i, env.Now(), start+2*time.Microsecond)
				}
			}
		})
	})
	if peak > 1 || left > 0 {
		t.Errorf("%d waits on chains ran on %d coroutines and left %d, want 1 and 0", n, peak, left)
	}
	if want := []int{0, 1, 0, 2, 1, 1, 1, 2}; !slices.Equal(order, want) {
		t.Errorf("continuations ran in the order %v, want %v (FIFO at one instant)", order, want)
	}

	env := NewEnv(1)
	env.Go(func() {
		env.Then(time.Microsecond, func() { env.Sleep(time.Microsecond) })
		NewFuture[int](env).WaitTimeout(time.Millisecond)
	})
	defer func() {
		if s := fmt.Sprint(recover()); !strings.Contains(s, "a Then continuation cannot") {
			t.Errorf("a continuation that blocks panicked with %q", s)
		}
	}()
	env.Run()
}

// TestProcessPanicAfterBlocking: a panic deep in a process that has
// already been switched away and back surfaces from Run like one in a
// callback, stamped with the time it happened at.
func TestProcessPanicAfterBlocking(t *testing.T) {
	env := NewEnv(1)
	env.Go(func() { env.Sleep(time.Hour) })
	env.Go(func() {
		env.Sleep(3 * time.Second)
		panic(fmt.Errorf("late"))
	})
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.At != 3*time.Second || fmt.Sprint(pe.Value) != "late" {
			t.Errorf("recovered %#v, want *PanicError{At: 3s, Value: late}", pe)
		}
	}()
	env.Run()
	t.Error("Run returned past a panicking process")
}

// TestGoexitInCallbackEndsRunCaller: runtime.Goexit in a process (what
// t.FailNow does) unwinds the goroutine that called Run, deferred calls
// included, instead of silently ending one process.
func TestGoexitInCallbackEndsRunCaller(t *testing.T) {
	returned, unwound := false, make(chan struct{})
	go func() {
		defer close(unwound)
		env := NewEnv(1)
		env.After(time.Millisecond, func() { runtime.Goexit() })
		env.Run()
		returned = true
	}()
	<-unwound
	if returned {
		t.Error("Run returned after a callback called runtime.Goexit")
	}
}

// TestMisusePanics: blocking where there is no process to block, and
// running where there already is one, panic with a message that names
// the mistake.
func TestMisusePanics(t *testing.T) {
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if s := fmt.Sprint(recover()); !strings.Contains(s, want) {
				t.Errorf("%s: panic %q, want one containing %q", what, s, want)
			}
		}()
		fn()
	}
	env := NewEnv(1)
	const outside = "outside a simulation process"
	mustPanic("Sleep from the set-up goroutine", outside, func() { env.Sleep(time.Millisecond) })
	mustPanic("Future.Wait from the set-up goroutine", outside, func() { NewFuture[int](env).Wait() })
	mustPanic("WaitGroup.Wait from the set-up goroutine", outside, func() {
		wg := NewWaitGroup(env)
		wg.Add(1)
		wg.Wait()
	})
	if env.pending() != 0 || env.Now() != 0 {
		t.Errorf("a refused call left something behind: %v", env)
	}
	// What does not block needs no process.
	NewWaitGroup(env).Wait()
	f := NewFuture[int](env)
	f.Set(1)
	f.Wait()

	ran := false
	env.Go(func() {
		mustPanic("Run from inside a process", "Run called from inside a simulation process", func() { env.Run() })
		env.Sleep(time.Millisecond) // the process is intact
		ran = true
	})
	if end := env.Run(); !ran || end != time.Millisecond {
		t.Errorf("process ran=%v, Run returned %v", ran, end)
	}
}
