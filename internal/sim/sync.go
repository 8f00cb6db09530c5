package sim

import (
	"sync"
	"time"
)

// Future is a write-once value that simulation processes can wait on.
// The zero value is not usable; create one with NewFuture.
type Future[T any] struct {
	env *Env
	mu  sync.Mutex
	set bool
	val T
	// Parked processes. The first is held inline: a future is mostly an
	// RPC reply with one waiter, which then costs no slice.
	first *timer
	more  []*timer
}

// NewFuture returns an unset future bound to env.
func NewFuture[T any](env *Env) *Future[T] {
	return &Future[T]{env: env}
}

// addWaiterLocked registers a pooled waiter; f.mu must be held.
func (f *Future[T]) addWaiterLocked() *timer {
	w := timerPool.Get().(*timer)
	if f.first == nil {
		f.first = w
	} else {
		f.more = append(f.more, w)
	}
	return w
}

// Set resolves the future and wakes all waiters. Setting twice panics:
// a future models a single RPC reply or completion event.
func (f *Future[T]) Set(v T) {
	f.mu.Lock()
	if f.set {
		f.mu.Unlock()
		panic("sim: Future set twice")
	}
	f.set = true
	f.val = v
	first, more := f.first, f.more
	f.first, f.more = nil, nil
	f.mu.Unlock()
	if first == nil {
		return
	}
	e := f.env
	e.mu.Lock()
	e.resumeLocked(first)
	for _, w := range more {
		e.resumeLocked(w)
	}
	e.mu.Unlock()
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// Wait blocks the calling process until the future resolves and
// returns its value.
func (f *Future[T]) Wait() T {
	v, _ := f.WaitTimeout(-1)
	return v
}

// WaitTimeout blocks the calling process until the future resolves or
// d of virtual time elapses (a negative d never elapses). ok reports
// whether the value was obtained; on timeout the future stays valid and
// a later Set still resolves it for other waiters (the operation keeps
// running in the background, as a timed-out RPC does). The deadline is
// a heap entry on the waiter itself, not a helper process: when Set
// comes first it is discarded without becoming an event.
func (f *Future[T]) WaitTimeout(d time.Duration) (v T, ok bool) {
	f.mu.Lock()
	if f.set {
		v := f.val
		f.mu.Unlock()
		return v, true
	}
	w := f.addWaiterLocked()
	f.mu.Unlock()
	f.env.parkDeadline(w, d)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.set
}

// WaitGroup mirrors sync.WaitGroup for simulation processes.
type WaitGroup struct {
	env     *Env
	mu      sync.Mutex
	n       int
	waiters []*timer
}

// NewWaitGroup returns an empty wait group bound to env.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add adds delta to the counter; when it reaches zero, waiters resume.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	var ws []*timer
	if w.n == 0 {
		ws = w.waiters
		w.waiters = nil
	}
	w.mu.Unlock()
	for _, p := range ws {
		w.env.resume(p)
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	p := timerPool.Get().(*timer)
	w.waiters = append(w.waiters, p)
	w.mu.Unlock()
	w.env.park(p)
}

// Semaphore is a counted resource usable from simulation processes.
// Acquire order is FIFO, which keeps resource contention deterministic.
type Semaphore struct {
	env   *Env
	mu    sync.Mutex
	avail int
	queue []semWaiter
}

type semWaiter struct {
	n int
	w *timer
}

// NewSemaphore returns a semaphore with the given number of permits.
func NewSemaphore(env *Env, permits int) *Semaphore {
	return &Semaphore{env: env, avail: permits}
}

// Acquire blocks the calling process until n permits are available and
// takes them.
func (s *Semaphore) Acquire(n int) {
	s.mu.Lock()
	if len(s.queue) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return
	}
	w := timerPool.Get().(*timer)
	s.queue = append(s.queue, semWaiter{n: n, w: w})
	s.mu.Unlock()
	s.env.park(w)
}

// TryAcquire takes n permits if immediately available.
func (s *Semaphore) TryAcquire(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n permits and wakes queued acquirers in FIFO order.
func (s *Semaphore) Release(n int) {
	s.mu.Lock()
	s.avail += n
	var woken []*timer
	for len(s.queue) > 0 && s.avail >= s.queue[0].n {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.avail -= w.n
		woken = append(woken, w.w)
	}
	s.mu.Unlock()
	for _, w := range woken {
		s.env.resume(w)
	}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.avail
}

// Queue is an unbounded FIFO channel for simulation processes. Send
// never blocks; Recv blocks until an item is available.
type Queue[T any] struct {
	env     *Env
	mu      sync.Mutex
	items   []T
	waiters []*timer
	closed  bool
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Send enqueues an item, waking one waiting receiver if any.
func (q *Queue[T]) Send(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("sim: send on closed Queue")
	}
	q.items = append(q.items, v)
	var w *timer
	if len(q.waiters) > 0 {
		w = q.waiters[0]
		q.waiters = q.waiters[1:]
	}
	q.mu.Unlock()
	if w != nil {
		q.env.resume(w)
	}
}

// Close marks the queue closed; pending and future Recv calls drain
// remaining items then return ok=false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, w := range ws {
		q.env.resume(w)
	}
}

// Recv dequeues the next item, blocking while the queue is empty.
// ok is false once the queue is closed and drained.
func (q *Queue[T]) Recv() (v T, ok bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			v = q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return v, true
		}
		if q.closed {
			q.mu.Unlock()
			return v, false
		}
		w := timerPool.Get().(*timer)
		q.waiters = append(q.waiters, w)
		q.mu.Unlock()
		q.env.park(w)
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
