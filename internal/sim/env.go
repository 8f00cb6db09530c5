// Package sim implements a deterministic discrete-event simulation
// substrate with coroutine processes and a virtual clock.
//
// Every component of the OFC reproduction (FaaS platform, RAMCloud-like
// cache, Swift-like object store, network and disks) runs as sim
// processes: functions that only ever block through the primitives of
// this package (Sleep, Future.Wait, Semaphore.Acquire, Queue.Recv,
// WaitGroup.Wait). The clock advances only when every process is
// blocked, which makes half-hour macro experiments complete in
// milliseconds of host time while preserving the timing relationships
// between components.
//
// A process is a runtime coroutine (iter.Pull), and exactly one runs at
// any host instant — by construction, not by locking: nothing in this
// package is concurrent, so it holds no mutex, channel or atomic (the
// Rand/NewRand lock aside). A process that blocks registers its timer
// or waiter and then picks what runs next itself: the runnable queue
// first, else the earliest (timestamp, seq) entry of the 4-ary timer
// heap. When the pick is its own entry it just carries on; otherwise it
// hands the pick to Run and yields, and Run — the only resumer —
// switches straight to the picked process. A process that returns picks
// as well, and hosts a picked callback or spawned function on its own
// coroutine, so a keep-alive, Every or arrival chain never switches at
// all. Timers and retired coroutines are recycled per environment, a
// wait with a deadline (Future.WaitTimeout) is one heap entry and no
// helper event. One event runs to its next blocking point, and
// everything it made runnable runs, before the next timer is popped,
// which is what makes a run a pure function of its seed on any number
// of Ps.
//
// What callers must know: nothing runs before Run (Go and After only
// queue); a blocking primitive called outside a process, and Run called
// inside one, panic; a panic in a process surfaces from Run, on Run's
// caller, as a *PanicError; and a sync.Mutex held across a blocking
// call deadlocks the host the moment a second process wants it, because
// the holder cannot run until the waiter yields (ofc-lint's lockedrpc
// rejects that shape).
//
// Usage:
//
//	env := sim.NewEnv(seed)
//	env.Go(func() { ... env.Sleep(10 * time.Millisecond) ... })
//	env.Run() // returns when no process is runnable and no timer pending
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"
)

// Time is an instant on the virtual clock, expressed as an offset from
// the simulation epoch. Durations and instants share the same unit so
// arithmetic stays trivial.
type Time = time.Duration

// timer is one thing that can be picked to run: a parked process (p) —
// on the heap (Sleep, a WaitTimeout deadline), on the waiter list of a
// Future, WaitGroup, Semaphore or Queue, or both at once — or a function
// to host (fn): an After callback on the heap, a Go spawn in the
// runnable queue. Timers are recycled per environment as soon as their
// single wake has been delivered, so the steady-state event loop
// allocates nothing.
type timer struct {
	at  Time
	seq int64 // FIFO tie-break for equal timestamps
	p   *proc
	fn  func()

	// A WaitTimeout waiter is reachable from the heap and from its
	// future at once; woken records that one of them delivered the wake,
	// so the other drops its reference instead.
	deadline bool // heap entry is a wait deadline, not a Sleep
	woken    bool
}

// proc is one coroutine. It hosts one function at a time (fn is the
// next one) and parks in Env.idle between them.
type proc struct {
	env    *Env
	fn     func()
	resume func() (*timer, bool) // runs the coroutine until it yields its pick
	stop   func()
	yield  func(*timer) bool
}

// PanicError annotates a panic raised inside a Go process or an
// After/Every callback with the virtual timestamp at which it was
// running, so a failure deep in a macro experiment is attributable to a
// point in simulated time. Run re-raises it on its caller's goroutine,
// whose stack says nothing about the process, so the error carries the
// stack of the coroutine that panicked.
// The original panic value is preserved in Value.
type PanicError struct {
	At    Time
	Value interface{}
	stack []byte
}

// Error implements error; the Go runtime prints it when the panic
// terminates the program.
func (p *PanicError) Error() string {
	return fmt.Sprintf("sim: callback panic at virtual time %v: %v\n\nprocess %s", p.At, p.Value, p.stack)
}

// Env is a simulation environment: a virtual clock, an event queue and
// a runnable queue. An Env and everything bound to it belong to the
// goroutine that calls Run and to the processes Run resumes; nothing
// else may touch them while Run is in progress.
type Env struct {
	now     Time
	heap    []*timer // 4-ary min-heap ordered by (at, seq)
	seq     int64
	stopped bool
	limit   Time  // horizon; 0 means none
	events  int64 // timers dispatched

	cur *proc // the one process that is running; nil outside Run

	// Runnable queue, in the order the Go runtime gave goroutines on one
	// P, which every committed number was produced under (DESIGN.md
	// §11): the most recently readied runs first, and the one it
	// displaces joins the tail of a FIFO.
	next *timer
	runq []*timer
	head int // runq[:head] has been picked

	free []*timer // recycled timers
	idle []*proc  // retired coroutines, parked until Run returns

	rng   *rand.Rand
	rngMu sync.Mutex
}

// NewEnv returns a fresh environment whose clock reads zero. The seed
// feeds the environment RNG used by workloads so that experiments are
// reproducible.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events reports the number of timer events dispatched so far — the
// scheduler's work counter, used by benchmarks to derive events/sec.
func (e *Env) Events() int64 { return e.events }

// Rand returns a deterministic pseudo-random float64 in [0,1). Hot
// loops should carry a private rand.Rand obtained from NewRand instead
// of paying for the shared generator's lock per event.
func (e *Env) Rand() float64 {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return e.rng.Float64()
}

// NewRand derives an independent deterministic generator, for workloads
// that need a private stream. Derive once at setup, not per event.
func (e *Env) NewRand() *rand.Rand {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// newTimer takes a zeroed timer from the free list.
func (e *Env) newTimer() *timer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free = e.free[:n-1]
		return t
	}
	return new(timer)
}

// recycle returns t to the free list. The caller holds the last
// reference.
func (e *Env) recycle(t *timer) {
	*t = timer{}
	e.free = append(e.free, t)
}

// takeFn recycles a picked callback or spawn and returns its function.
func (e *Env) takeFn(t *timer) func() {
	fn := t.fn
	e.recycle(t)
	return fn
}

// waiter returns the timer the running process is about to park on.
func (e *Env) waiter() *timer {
	if e.cur == nil {
		panic("sim: blocking call (Sleep, Wait, Acquire, Recv) outside a simulation process: nothing runs before Run, and only a function started by Go, After or Every can block")
	}
	w := e.newTimer()
	w.p = e.cur
	return w
}

// ready makes t runnable. Neither a spawn nor a wake is an event.
func (e *Env) ready(t *timer) {
	if e.next != nil {
		e.runq = append(e.runq, e.next)
	}
	e.next = t
}

// wake makes the process parked on w runnable again.
func (e *Env) wake(w *timer) {
	if w.woken {
		return // its deadline fired first
	}
	w.woken = true
	e.ready(w)
}

// Go spawns fn as a new simulation process. It may be called before Run
// or from inside another process; the process starts when it is picked,
// never before Run.
func (e *Env) Go(fn func()) {
	t := e.newTimer()
	t.fn = fn
	e.ready(t)
}

// park blocks the running process on w until wake(w), then recycles w.
func (e *Env) park(w *timer) { e.parkDeadline(w, -1) }

// parkDeadline is park with a deadline d from now: w also enters the
// heap, and whichever of wake(w) and the heap entry comes first resumes
// the process. The other finds w.woken and drops its reference — no
// event, no clock movement. A negative d, or a stopped environment,
// arms no deadline.
func (e *Env) parkDeadline(w *timer, d time.Duration) {
	armed := d >= 0 && !e.stopped
	if armed {
		w.deadline = true
		e.push(e.now+d, w)
	}
	e.block(w)
	// An armed w is still referenced by the loser: a dead heap entry is
	// recycled when it is popped, a timed-out waiter is left to its
	// future.
	if !armed {
		e.recycle(w)
	}
}

// block suspends the running process, already registered on w, until w
// is picked. The process picks what runs meanwhile itself; only when
// that is not w does it leave the pick to Run and switch away.
func (e *Env) block(w *timer) {
	if t := e.pick(); t != w {
		w.p.yield(t)
	}
}

// less orders timers by (timestamp, FIFO seq).
func less(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push schedules t at the given instant, behind everything already
// scheduled there. A 4-ary layout halves the tree depth of the binary
// heap and keeps children on one cache line, and the inlined sift
// avoids container/heap's interface boxing on every operation.
func (e *Env) push(at Time, t *timer) {
	t.at, t.seq = at, e.seq
	e.seq++
	h := append(e.heap, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// pop removes and returns the earliest timer; the heap must be
// non-empty.
func (e *Env) pop() *timer {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		min := i
		base := 4*i + 1
		end := base + 4
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.heap = h
	return top
}

// pick removes and returns what runs next: the runnable queue first,
// else the next event — timers fire in (timestamp, seq) order, each
// only once everything the one before made runnable has blocked or
// exited. nil means nothing is runnable and nothing is pending: the run
// is over and the environment is left stopped.
func (e *Env) pick() *timer {
	if t := e.next; t != nil {
		e.next = nil
		return t
	}
	if e.head < len(e.runq) {
		t := e.runq[e.head]
		e.runq[e.head] = nil
		if e.head++; e.head == len(e.runq) {
			e.runq, e.head = e.runq[:0], 0
		}
		return t
	}
	for len(e.heap) > 0 {
		t := e.pop()
		if t.woken {
			// A deadline whose wait was already resolved: not an event.
			e.recycle(t)
			continue
		}
		if !e.stopped {
			if e.limit > 0 && t.at > e.limit {
				// Horizon reached: freeze the clock and drain.
				e.now = e.limit
				e.stopped = true
			} else if t.at > e.now {
				e.now = t.at
			}
		}
		if e.stopped && (t.fn != nil || t.deadline) {
			// Draining: callbacks and deadlines scheduled before the
			// stop never fire after it. A deadline's waiter stays parked
			// on t for its future, so only callbacks are recycled.
			if t.fn != nil {
				e.recycle(t)
			}
			continue
		}
		e.events++
		t.woken = t.deadline // a later Set must skip a timed-out waiter
		return t
	}
	e.stopped = true
	return nil
}

// Sleep suspends the calling process for d of virtual time. Negative or
// zero durations yield to other processes scheduled at the same instant.
// Once the environment is stopped (Stop or horizon) the clock is frozen
// and Sleep returns immediately, so processes drain instead of leaking.
func (e *Env) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if e.stopped {
		return
	}
	t := e.waiter()
	e.push(e.now+d, t)
	e.block(t)
	e.recycle(t)
}

// After schedules fn to run as a new process at now+d. Callbacks
// scheduled after the environment has stopped are dropped: periodic
// chains end at the stop point instead of queueing events that could
// never fire.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.stopped {
		return
	}
	t := e.newTimer()
	t.fn = fn
	e.push(e.now+d, t)
}

// Every schedules fn at the given period until the simulation ends or
// fn returns false.
func (e *Env) Every(period time.Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var tick func()
	tick = func() {
		if e.Stopped() {
			return
		}
		if !fn() {
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
}

// Stopped reports whether Stop was called or the horizon was reached.
func (e *Env) Stopped() bool { return e.stopped }

// Stop asks Run to terminate. Pending After callbacks are discarded;
// pending Sleepers are woken with the clock frozen at the stop time so
// their processes run to completion instead of leaking (subsequent
// Sleeps return immediately, see Sleep).
func (e *Env) Stop() { e.stopped = true }

// Run drives the simulation until no process is runnable and no timer
// is pending, or the horizon (SetHorizon) is reached, or Stop is
// called. It returns the final virtual time. Run must be called from a
// plain goroutine, not from a simulation process.
//
// Run is the only resumer: it switches to the process a yielding
// process picked (or picks itself), and gets control back with the next
// pick. A panic in a process re-raises here as a *PanicError, and a
// runtime.Goexit in one (t.FailNow in a callback) ends Run's caller.
//
// After Stop or the horizon the simulation drains: remaining Sleep
// timers are woken at the frozen clock (their processes terminate
// instead of leaking), remaining callbacks and wait deadlines are
// dropped. Retired coroutines are released before Run returns; a
// process still parked then keeps its coroutine for ever, and is never
// stopped, because stopping it would resume its body.
func (e *Env) Run() Time {
	if e.cur != nil {
		panic("sim: Run called from inside a simulation process")
	}
	defer e.release()
	for t := e.pick(); t != nil; {
		p := t.p
		if t.fn != nil {
			p = e.worker()
			p.fn = e.takeFn(t)
		}
		e.cur = p
		t, _ = p.resume() // until it yields its pick; nil: it found nothing left
	}
	return e.now
}

// release ends Run, however it ends: no process is running any more,
// and the retired coroutines exit.
func (e *Env) release() {
	e.cur = nil
	for i, p := range e.idle {
		p.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// worker returns a coroutine with nothing to host: a retired one, or a
// new one when none is parked. Coroutine identity is invisible to the
// function hosted, so the choice cannot affect determinism.
func (e *Env) worker() *proc {
	if n := len(e.idle); n > 0 {
		p := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return p
	}
	p := &proc{env: e}
	p.resume, p.stop = iter.Pull(p.loop)
	return p
}

// loop is the body of a coroutine: it hosts p.fn as a simulation
// process, then picks. A picked callback or spawn is hosted in place; a
// parked process, or nothing, is handed to Run while this coroutine
// retires to e.idle, from where worker gives it its next function or
// release ends it (yield reports false). A panic leaves through
// iter.Pull to Run's caller, wrapped in PanicError so the crash names
// the virtual time at which the process was running; runtime.Goexit
// takes the same road.
func (p *proc) loop(yield func(*timer) bool) {
	e := p.env
	defer func() {
		if r := recover(); r != nil {
			panic(&PanicError{At: e.now, Value: r, stack: debug.Stack()})
		}
	}()
	p.yield = yield
	for {
		fn := p.fn
		p.fn = nil
		fn()
		t := e.pick()
		if t != nil && t.fn != nil {
			p.fn = e.takeFn(t)
			continue
		}
		e.idle = append(e.idle, p)
		if !yield(t) {
			return
		}
	}
}

// SetHorizon caps the virtual clock: Run returns once the next event
// would be after limit.
func (e *Env) SetHorizon(limit time.Duration) { e.limit = limit }

// String describes the environment state for debugging.
func (e *Env) String() string {
	runnable := len(e.runq) - e.head
	if e.next != nil {
		runnable++
	}
	return fmt.Sprintf("sim.Env{now=%v runnable=%d timers=%d}", e.now, runnable, len(e.heap))
}
