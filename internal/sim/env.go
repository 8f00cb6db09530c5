// Package sim implements a deterministic discrete-event simulation
// substrate with goroutine-based processes and a virtual clock.
//
// Every component of the OFC reproduction (FaaS platform, RAMCloud-like
// cache, Swift-like object store, network and disks) runs as sim
// processes: ordinary goroutines that only ever block through the
// primitives of this package (Sleep, Future.Wait, Semaphore.Acquire,
// Queue.Recv, WaitGroup.Wait). The scheduler advances the virtual clock
// only when every process is blocked, which makes half-hour macro
// experiments complete in milliseconds of host time while preserving
// the timing relationships between components.
//
// The event loop is the hot path of every experiment, so it is built
// to avoid per-event allocation, lock traffic and goroutine switches.
// There is no scheduler goroutine: the process whose Sleep, wait or
// exit leaves nothing runnable pops the earliest timer of the 4-ary
// heap under the environment lock and wakes its owner itself — one
// goroutine hand-off per event, none when the timer is its own. Timers,
// waiters and their wake channels are pooled and recycled, Go and After
// run their functions on recycled worker goroutines, a wait with a
// deadline (Future.WaitTimeout) is one heap entry and no helper event,
// and Now/Stopped are lock-free atomic reads. Dispatch itself stays
// strictly serialized in (timestamp, seq) order — one event runs to
// its next blocking point before the next is released — which is what
// makes runs a pure function of their seed. The caller's time outside
// Run counts as a running set-up process, so nothing is dispatched and
// the clock does not move until Run is entered.
//
// Usage:
//
//	env := sim.NewEnv(seed)
//	env.Go(func() { ... env.Sleep(10 * time.Millisecond) ... })
//	env.Run() // returns when no process is runnable and no timer pending
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Time is an instant on the virtual clock, expressed as an offset from
// the simulation epoch. Durations and instants share the same unit so
// arithmetic stays trivial.
type Time = time.Duration

// timer is one parked process or pending callback: a heap entry
// (Sleep, After, a WaitTimeout deadline), a waiter of a Future,
// WaitGroup, Semaphore or Queue, or both at once. Timers are pooled and
// recycled as soon as their single wake has been delivered, so the
// steady-state event loop allocates nothing.
type timer struct {
	at  Time
	seq int64 // FIFO tie-break for equal timestamps
	ch  chan struct{}
	fn  func() // optional callback (runs as its own process)

	// A WaitTimeout waiter is reachable from the heap and from its
	// future at once; woken (guarded by Env.mu) records that one of them
	// delivered the wake, so the other drops its reference instead.
	deadline bool // heap entry is a wait deadline, not a Sleep
	woken    bool
}

// timerPool recycles timers across processes and environments. The
// wake channel is buffered with capacity one and carries at most one
// send per timer life, so it is empty again when the timer is reused.
var timerPool = sync.Pool{New: func() interface{} {
	return &timer{ch: make(chan struct{}, 1)}
}}

// recycle returns t to the pool. The caller holds the last reference.
func (t *timer) recycle() {
	t.fn, t.deadline, t.woken = nil, false, false
	timerPool.Put(t)
}

// maxIdleWorkers bounds the parked goroutines of the worker pool. A
// worker hosts one Go or After function at a time and parks when it
// returns; beyond the bound it exits instead, so long-lived processes
// never exhaust the pool and a burst does not pin its goroutines.
const maxIdleWorkers = 64

// PanicError annotates a panic raised inside a Go process or an
// After/Every callback with the virtual timestamp at which it was
// running, so a failure deep in a macro experiment is attributable to a
// point in simulated time.
// The original panic value is preserved in Value.
type PanicError struct {
	At    Time
	Value interface{}
}

// Error implements error; the Go runtime prints it when the re-raised
// panic terminates the program.
func (p *PanicError) Error() string {
	return fmt.Sprintf("sim: callback panic at virtual time %v: %v", p.At, p.Value)
}

// Env is a simulation environment: a virtual clock, an event queue and
// a census of runnable processes. An Env is safe for concurrent use by
// the processes it spawned.
type Env struct {
	mu       sync.Mutex
	cond     *sync.Cond // wakes Run when finished is set
	now      Time       // guarded by mu; mirrored in nowA for lock-free reads
	running  int        // processes runnable or executing, the caller outside Run included
	heap     []*timer   // 4-ary min-heap ordered by (at, seq)
	seq      int64
	stopped  bool // guarded by mu; mirrored in stoppedA
	finished bool // nothing runnable and nothing pending: Run may return
	limit    Time // horizon; 0 means none

	nowA     atomic.Int64
	stoppedA atomic.Bool
	events   atomic.Int64 // timers dispatched

	// Worker pool (guarded by mu): parked goroutines, each waiting on
	// its own channel for the next function to host.
	idle     []chan func()
	draining bool

	rng   *rand.Rand
	rngMu sync.Mutex
}

// NewEnv returns a fresh environment whose clock reads zero. The seed
// feeds the environment RNG used by workloads so that experiments are
// reproducible.
func NewEnv(seed int64) *Env {
	// running starts at one: until Run is entered the caller is a
	// running set-up process, so processes it spawns can block without
	// the clock moving under the ones it has yet to spawn.
	e := &Env{rng: rand.New(rand.NewSource(seed)), running: 1}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Now returns the current virtual time. It is a lock-free atomic read:
// hot loops (per-invocation timestamps, workload deadline checks) call
// it once per event and must not contend with the scheduler mutex.
func (e *Env) Now() Time {
	return Time(e.nowA.Load())
}

// Events reports the number of timer events dispatched so far — the
// scheduler's work counter, used by benchmarks to derive events/sec.
func (e *Env) Events() int64 { return e.events.Load() }

// Rand returns a deterministic pseudo-random float64 in [0,1). It is
// safe for concurrent use, though cross-process call ordering at equal
// virtual timestamps is not deterministic; workloads that need strict
// reproducibility (and hot loops that would otherwise serialize on the
// shared generator's lock) should carry a private rand.Rand obtained
// from NewRand instead of calling Rand per event.
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

// setNowLocked advances the clock; e.mu must be held.
func (e *Env) setNowLocked(t Time) {
	e.now = t
	e.nowA.Store(int64(t))
}

// markStoppedLocked latches the stop flag; e.mu must be held.
func (e *Env) markStoppedLocked() {
	e.stopped = true
	e.stoppedA.Store(true)
}

// Go spawns fn as a new simulation process. It may be called before Run
// or from inside another process.
func (e *Env) Go(fn func()) {
	e.mu.Lock()
	e.running++
	e.startLocked(fn)
	e.mu.Unlock()
}

// park retires the calling process from the census until resume(w),
// then recycles w.
func (e *Env) park(w *timer) { e.parkDeadline(w, -1) }

// parkDeadline is park with a deadline d from now: w also enters the
// heap, and whichever of resume(w) and the heap entry comes first wakes
// the process. The other finds w.woken and drops its reference — no
// event, no clock movement. A negative d, or a stopped environment,
// arms no deadline.
func (e *Env) parkDeadline(w *timer, d time.Duration) {
	e.mu.Lock()
	armed := d >= 0 && !e.stopped && !w.woken
	if armed {
		w.deadline = true
		e.pushLocked(e.now+d, w)
	}
	e.running--
	self := e.running == 0 && e.dispatchLocked(w)
	e.mu.Unlock()
	if !self {
		<-w.ch
	}
	// An armed w is still referenced by the loser: a dead heap entry is
	// recycled when it is popped, a timed-out waiter is left to its
	// future.
	if !armed {
		w.recycle()
	}
}

// resume marks the process parked on w runnable again and wakes it.
func (e *Env) resume(w *timer) {
	e.mu.Lock()
	e.resumeLocked(w)
	e.mu.Unlock()
}

// resumeLocked is resume with e.mu held. The send never blocks: the
// channel is buffered and carries one wake per timer life.
func (e *Env) resumeLocked(w *timer) {
	if w.woken {
		return // its deadline fired first
	}
	w.woken = true
	e.running++
	w.ch <- struct{}{}
}

// less orders timers by (timestamp, FIFO seq).
func less(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushLocked schedules t at the given instant, behind everything
// already scheduled there; e.mu must be held. A 4-ary layout halves the
// tree depth of the binary heap and keeps children on one cache line,
// and the inlined sift avoids container/heap's interface boxing on
// every operation.
func (e *Env) pushLocked(at Time, t *timer) {
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

// popLocked removes and returns the earliest timer; e.mu must be held
// and the heap must be non-empty.
func (e *Env) popLocked() *timer {
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

// Sleep suspends the calling process for d of virtual time. Negative or
// zero durations yield to other processes scheduled at the same instant.
// Once the environment is stopped (Stop or horizon) the clock is frozen
// and Sleep returns immediately, so processes drain instead of leaking.
func (e *Env) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	t := timerPool.Get().(*timer)
	e.pushLocked(e.now+d, t)
	e.running--
	self := e.running == 0 && e.dispatchLocked(t)
	e.mu.Unlock()
	if !self {
		<-t.ch
	}
	t.recycle()
}

// After schedules fn to run as a new process at now+d. Callbacks
// scheduled after the environment has stopped are dropped: periodic
// chains end at the stop point instead of queueing events that could
// never fire.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	t := timerPool.Get().(*timer)
	t.fn = fn
	e.pushLocked(e.now+d, t)
	e.mu.Unlock()
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
// Lock-free; safe to poll from hot loops.
func (e *Env) Stopped() bool {
	return e.stoppedA.Load()
}

// Stop asks Run to terminate. Pending After callbacks are discarded;
// pending Sleepers are woken with the clock frozen at the stop time so
// their goroutines run to completion instead of leaking (subsequent
// Sleeps return immediately, see Sleep).
func (e *Env) Stop() {
	e.mu.Lock()
	e.markStoppedLocked()
	e.mu.Unlock()
}

// Run drives the simulation until no process is runnable and no timer
// is pending, or the horizon (SetHorizon) is reached, or Stop is
// called. It returns the final virtual time. Run must be called from a
// plain goroutine, not from a simulation process.
//
// Run itself dispatches nothing beyond the first event: entering it
// retires the caller's set-up process, and from then on whichever
// process leaves the census empty releases the next event
// (dispatchLocked). Run sleeps until one of them finds nothing left.
//
// After Stop or the horizon the simulation drains: remaining Sleep
// timers are woken at the frozen clock (their processes terminate
// instead of leaking), remaining callbacks and wait deadlines are
// dropped, and the worker pool is shut down before Run returns.
func (e *Env) Run() Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running--
	if e.running == 0 {
		e.dispatchLocked(nil)
	}
	for !e.finished {
		e.cond.Wait()
	}
	e.finished = false
	e.running++ // the caller is a set-up process again
	e.drainWorkersLocked()
	return e.now
}

// dispatchLocked releases the next event; e.mu must be held and the
// census empty (e.running == 0). Timers fire in (timestamp, seq) order
// and, because only an empty census dispatches, each event runs until
// every process it woke has blocked or exited before the next one is
// released. self is the caller's own heap entry, if it has one: when
// that is the next event the caller is runnable again without a
// goroutine switch, and dispatchLocked reports true instead of sending
// the wake.
func (e *Env) dispatchLocked(self *timer) bool {
	for len(e.heap) > 0 {
		t := e.popLocked()
		if t.woken {
			// A deadline whose wait was already resolved: not an event.
			t.recycle()
			continue
		}
		if !e.stopped {
			if e.limit > 0 && t.at > e.limit {
				// Horizon reached: freeze the clock and drain.
				e.setNowLocked(e.limit)
				e.markStoppedLocked()
			} else if t.at > e.now {
				e.setNowLocked(t.at)
			}
		}
		if e.stopped && (t.fn != nil || t.deadline) {
			// Draining: callbacks and deadlines scheduled before the
			// stop never fire after it. A deadline's waiter stays parked
			// on t for its future, so only callbacks are recycled.
			if t.fn != nil {
				t.recycle()
			}
			continue
		}
		e.events.Add(1)
		e.running++
		if t.fn != nil {
			fn := t.fn
			t.recycle()
			e.startLocked(fn)
			return false
		}
		t.woken = t.deadline // a later Set must skip a timed-out waiter
		if t == self {
			return true
		}
		t.ch <- struct{}{} // buffered; the owner recycles t
		return false
	}
	e.markStoppedLocked()
	e.finished = true
	e.cond.Signal()
	return false
}

// startLocked hands fn to a parked worker, or to a new one when none
// is parked; e.mu must be held and fn already counted in e.running.
// Worker identity is invisible to fn, so the choice cannot affect
// determinism.
func (e *Env) startLocked(fn func()) {
	if n := len(e.idle); n > 0 {
		ch := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		ch <- fn // buffered(1) and the worker is parked: never blocks
		return
	}
	ch := make(chan func(), 1)
	ch <- fn
	go e.workerLoop(ch)
}

// workerLoop hosts functions until execTask reports the worker was not
// parked again, or the pool drains (ch closed).
func (e *Env) workerLoop(ch chan func()) {
	for fn := range ch {
		if !e.execTask(fn, ch) {
			return
		}
	}
}

// execTask runs fn as a simulation process on the worker owning ch and
// retires it from the census however it terminates — return, panic, or
// runtime.Goexit (e.g. t.Fatal in a test callback). Only a normal
// return parks the worker for reuse, in the same critical section that
// retires the process, so a callback chain can be handed its own worker
// back. Panics are re-raised wrapped in PanicError so the crash names
// the virtual time at which the process was running.
func (e *Env) execTask(fn func(), ch chan func()) (parked bool) {
	returned := false
	defer func() {
		r := recover()
		e.mu.Lock()
		at := e.now
		if returned && !e.draining && len(e.idle) < maxIdleWorkers {
			e.idle = append(e.idle, ch)
			parked = true
		}
		e.running--
		if e.running == 0 {
			e.dispatchLocked(nil)
		}
		e.mu.Unlock()
		if r != nil {
			panic(&PanicError{At: at, Value: r})
		}
	}()
	fn()
	returned = true
	return
}

// drainWorkersLocked shuts the worker pool down; e.mu must be held.
// Parked workers are released immediately; a worker still hosting a
// blocked process exits when (if ever) that process finishes.
func (e *Env) drainWorkersLocked() {
	e.draining = true
	for i, ch := range e.idle {
		close(ch)
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// SetHorizon caps the virtual clock: Run returns once the next event
// would be after limit.
func (e *Env) SetHorizon(limit time.Duration) {
	e.mu.Lock()
	e.limit = limit
	e.mu.Unlock()
}

// String describes the environment state for debugging.
func (e *Env) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("sim.Env{now=%v running=%d timers=%d}", e.now, e.running, len(e.heap))
}
