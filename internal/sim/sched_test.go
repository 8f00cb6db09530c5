package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStopDrainsSleepers is the regression test for the Stop goroutine
// leak: processes blocked in Sleep when Stop fires must be woken (with
// the clock frozen) and run to completion instead of leaking until
// process exit.
func TestStopDrainsSleepers(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	const sleepers = 200
	var resumed atomic.Int64
	for i := 0; i < sleepers; i++ {
		i := i
		env.Go(func() {
			env.Sleep(time.Duration(1+i) * time.Hour) // far past the stop point
			resumed.Add(1)
		})
	}
	env.Go(func() {
		env.Sleep(time.Millisecond)
		env.Stop()
	})
	end := env.Run()
	if end != time.Millisecond {
		t.Fatalf("clock advanced past the stop point: %v", end)
	}
	if got := resumed.Load(); got != sleepers {
		t.Fatalf("only %d/%d sleepers resumed after Stop", got, sleepers)
	}
	// The sleeper goroutines have all passed their wake point before Run
	// returns; give the runtime a beat to unwind their stacks.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked across Stop: %d before, %d after", before, after)
	}
}

// TestHorizonDrainsSleepers: the horizon path must drain exactly like
// an explicit Stop.
func TestHorizonDrainsSleepers(t *testing.T) {
	env := NewEnv(1)
	env.SetHorizon(50 * time.Millisecond)
	var resumed atomic.Int64
	for i := 0; i < 50; i++ {
		env.Go(func() {
			env.Sleep(time.Hour)
			resumed.Add(1)
		})
	}
	if end := env.Run(); end != 50*time.Millisecond {
		t.Fatalf("final clock %v, want the 50ms horizon", end)
	}
	if got := resumed.Load(); got != 50 {
		t.Fatalf("only %d/50 sleepers resumed at the horizon", got)
	}
}

// TestAfterDroppedOnStop: callbacks pending at the stop point, and
// callbacks scheduled after it, must never fire.
func TestAfterDroppedOnStop(t *testing.T) {
	env := NewEnv(1)
	var fired atomic.Int64
	env.After(time.Hour, func() { fired.Add(1) })
	env.Go(func() {
		env.Sleep(time.Millisecond)
		env.Stop()
		env.After(time.Microsecond, func() { fired.Add(1) })
	})
	env.Run()
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Stop", n)
	}
}

// TestSchedulerStress drives 10k concurrent processes through mixed
// Sleep/After/Every traffic with heavy equal-timestamp collisions and
// checks FIFO tie-break order and the final clock value. make
// test-race runs this under the race detector.
func TestSchedulerStress(t *testing.T) {
	env := NewEnv(7)
	const procs = 10000
	var done atomic.Int64
	var maxAt time.Duration
	for i := 0; i < procs; i++ {
		// i%977 and i%13 force thousands of processes onto shared
		// timestamps (equal-timestamp storms for the FIFO tie-break).
		d1 := time.Duration(i%977) * time.Millisecond
		d2 := time.Duration(i%13) * time.Millisecond
		if d1+d2 > maxAt {
			maxAt = d1 + d2
		}
		env.Go(func() {
			env.Sleep(d1)
			env.Sleep(d2)
			done.Add(1)
		})
	}

	// Equal-timestamp callback storm: all fire at t=2s, and FIFO-by-seq
	// dispatch means the append order must equal the schedule order.
	// The slice is intentionally unsynchronized — serialized dispatch is
	// the guarantee under test, and -race verifies it.
	const storm = 500
	var order []int
	for i := 0; i < storm; i++ {
		i := i
		env.After(2*time.Second, func() { order = append(order, i) })
	}

	ticks := 0
	env.Every(100*time.Millisecond, func() bool {
		ticks++
		return ticks < 25
	})

	end := env.Run()

	want := maxAt
	if 2*time.Second > want {
		want = 2 * time.Second
	}
	if tickEnd := 25 * 100 * time.Millisecond; tickEnd > want {
		want = tickEnd
	}
	if end != want {
		t.Errorf("final clock %v, want %v", end, want)
	}
	if got := done.Load(); got != procs {
		t.Errorf("%d/%d processes completed", got, procs)
	}
	if len(order) != storm {
		t.Fatalf("%d/%d storm callbacks fired", len(order), storm)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp callbacks fired out of FIFO order: position %d got %d", i, v)
		}
	}
}

// TestCallbackPanicAnnotated: a panic inside an After callback leaves
// Run, on Run's caller, as a PanicError carrying the virtual timestamp
// and the original value, and the environment is not left believing a
// process is still running.
func TestCallbackPanicAnnotated(t *testing.T) {
	env := NewEnv(1)
	env.After(5*time.Millisecond, func() { panic("boom") })
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok || pe.At != 5*time.Millisecond || pe.Value != "boom" {
				t.Fatalf("recovered %#v, want *PanicError{At: 5ms, Value: boom}", pe)
			}
			if s := pe.Error(); !strings.Contains(s, "virtual time 5ms") || !strings.Contains(s, "boom") {
				t.Errorf("panic not annotated with virtual timestamp: %s", s)
			}
		}()
		env.Run()
		t.Error("Run returned past a panicking callback")
	}()
	ran := false
	env.Go(func() { ran = true })
	env.Run() // must not claim to be inside a process
	if !ran {
		t.Error("environment unusable after a recovered PanicError")
	}
}

// TestEventsCounter: the dispatch counter must count every fired timer,
// a Then continuation as a Sleep, and the spawn counter every Go and
// nothing else.
func TestEventsCounter(t *testing.T) {
	env := NewEnv(1)
	const n = 100
	for i := 0; i < n; i++ {
		env.Go(func() { env.Sleep(time.Millisecond) })
	}
	env.After(2*time.Millisecond, func() {})
	env.Then(3*time.Millisecond, func() { env.Then(time.Millisecond, func() {}) })
	env.Every(time.Second, func() bool { return false })
	env.Run()
	if got := env.Events(); got != n+4 {
		t.Errorf("Events() = %d, want %d", got, n+4)
	}
	if got := env.Spawned(); got != n {
		t.Errorf("Spawned() = %d, want %d", got, n)
	}
}

// TestThenDrainsLikeSleep: a chain of Then continuations drains as the
// same steps written as Sleeps in one process do. Four chains of
// staggered steps are in flight when the environment stops, by Stop and
// by the horizon; each step runs at the instant its sleeping twin
// resumes (the frozen clock, once stopped), the process parked on the
// chains' countdown returns, no coroutine is left parked, and the After
// callback pending beside them is dropped.
func TestThenDrainsLikeSleep(t *testing.T) {
	const chains, stopAt = 4, 10 * time.Millisecond
	steps := []time.Duration{3 * time.Millisecond, 0, 5 * time.Millisecond, 7 * time.Millisecond}
	step := func(c, i int) time.Duration { return steps[i] + time.Duration(c)*1100*time.Microsecond }
	// run records the instant each step of each chain ran and the one
	// at which the waiter returned, the chains written as continuations
	// (cont) or as sleeping processes.
	run := func(horizon, cont bool) (at [chains][]Time, joined Time, left int) {
		joined = -1
		_, left = goroutinesOver(func(env *Env, _ func()) {
			if horizon {
				env.SetHorizon(stopAt)
			} else {
				env.After(stopAt, env.Stop)
			}
			env.After(time.Hour, func() { t.Error("an After callback ran after the stop") })
			done := NewFuture[struct{}](env)
			pending := chains
			end := func() {
				if pending--; pending == 0 {
					done.Set(struct{}{})
				}
			}
			env.Go(func() {
				for c := 0; c < chains; c++ {
					if cont {
						i := 0
						var next func()
						next = func() {
							at[c] = append(at[c], env.Now())
							if i == len(steps) {
								end()
								return
							}
							i++
							env.Then(step(c, i-1), next)
						}
						next()
						continue
					}
					env.Go(func() {
						at[c] = append(at[c], env.Now())
						for i := range steps {
							env.Sleep(step(c, i))
							at[c] = append(at[c], env.Now())
						}
						end()
					})
				}
				done.Wait()
				joined = env.Now()
			})
		})
		return at, joined, left
	}
	for _, horizon := range []bool{false, true} {
		got, joined, left := run(horizon, true)
		want, _, _ := run(horizon, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("horizon %v: continuation steps ran at %v, the sleeping twins at %v", horizon, got, want)
		}
		if got[chains-1][len(steps)] != stopAt {
			t.Errorf("horizon %v: the last step ran at %v, want the frozen clock %v", horizon, got[chains-1][len(steps)], stopAt)
		}
		if joined != stopAt || left > 0 {
			t.Errorf("horizon %v: the waiter returned at %v with %d coroutines left parked, want %v and 0", horizon, joined, left, stopAt)
		}
	}
}

// TestNothingDispatchesBeforeRun: Go and After only queue. Until Run
// is entered no process has started, the clock and the event counter
// have not moved, and a process spawned after one that will sleep still
// starts at time zero.
func TestNothingDispatchesBeforeRun(t *testing.T) {
	env := NewEnv(1)
	started := 0
	var firstWoke, lateStart Time = -1, -1
	env.Go(func() {
		started++
		env.Sleep(time.Second)
		firstWoke = env.Now()
	})
	env.After(0, func() { started++ })
	if started != 0 || env.Now() != 0 || env.Events() != 0 {
		t.Fatalf("dispatched before Run: started=%d now=%v events=%d", started, env.Now(), env.Events())
	}
	env.Go(func() { lateStart = env.Now() })
	if end := env.Run(); end != time.Second {
		t.Errorf("final clock %v, want 1s", end)
	}
	if started != 2 || firstWoke != time.Second {
		t.Errorf("started=%d, sleeper woke at %v, want 2 and 1s", started, firstWoke)
	}
	if lateStart != 0 {
		t.Errorf("process spawned before Run started at %v, want 0", lateStart)
	}
	if env.Events() != 2 {
		t.Errorf("Events() = %d, want 2 (the callback and the sleep)", env.Events())
	}
}

// TestSelfWake: a lone sleeper is its own next event — Sleep returns
// with the clock advanced and the event counted, with no other
// goroutine to hand it off.
func TestSelfWake(t *testing.T) {
	env := NewEnv(1)
	env.Go(func() {
		for i := 1; i <= 3; i++ {
			env.Sleep(5 * time.Millisecond)
			if env.Now() != time.Duration(i)*5*time.Millisecond || env.Events() != int64(i) {
				t.Errorf("after sleep %d: now=%v events=%d", i, env.Now(), env.Events())
			}
		}
	})
	if end := env.Run(); end != 15*time.Millisecond {
		t.Errorf("final clock %v, want 15ms", end)
	}
}

// soupWake is one dispatched timer of the process soup: when it fired
// and the global order in which it was scheduled.
type soupWake struct {
	at    time.Duration
	sched int
}

// runTimerSoup drives procs timer-only processes through a seeded mix
// of Sleep and After on colliding timestamps and returns every wake in
// dispatch order. The log and the schedule counter are deliberately
// unsynchronized: one event at a time is the guarantee under test.
func runTimerSoup(t *testing.T, procs int) []soupWake {
	env := NewEnv(3)
	var log []soupWake
	scheduled := 0
	// arm notes a timer about to be scheduled d from now and returns
	// the function that logs its wake.
	arm := func(d time.Duration) func() {
		at, sched := env.Now()+d, scheduled
		scheduled++
		return func() {
			if env.Now() != at {
				t.Errorf("timer %d fired at %v, want %v", sched, env.Now(), at)
			}
			log = append(log, soupWake{at, sched})
		}
	}
	for p := 0; p < procs; p++ {
		rng := rand.New(rand.NewSource(int64(p)))
		d := time.Duration(rng.Intn(20)) * time.Millisecond
		fired := arm(d)
		env.After(d, func() {
			fired()
			for step := 0; step < 8; step++ {
				d := time.Duration(rng.Intn(20)) * time.Millisecond
				fired := arm(d)
				if rng.Intn(4) == 0 {
					env.After(d, fired)
				} else {
					env.Sleep(d)
					fired()
				}
			}
		})
	}
	env.Run()
	if len(log) != scheduled || env.Events() != int64(scheduled) {
		t.Fatalf("%d timers scheduled, %d fired, Events() = %d", scheduled, len(log), env.Events())
	}
	return log
}

// TestTimerSoupOrder: with nothing but timers in play, dispatch order
// is exactly (timestamp, schedule order), and two runs agree.
func TestTimerSoupOrder(t *testing.T) {
	const procs = 1000
	first := runTimerSoup(t, procs)
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.at > b.at || (a.at == b.at && a.sched >= b.sched) {
			t.Fatalf("wake %d (at %v, sched %d) dispatched before wake %d (at %v, sched %d)",
				i-1, a.at, a.sched, i, b.at, b.sched)
		}
	}
	second := runTimerSoup(t, procs)
	if len(second) != len(first) {
		t.Fatalf("second run fired %d timers, first %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverge at wake %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}
