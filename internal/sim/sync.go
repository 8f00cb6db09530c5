package sim

import "time"

// Future is a write-once value that simulation processes can wait on.
// The zero value is not usable; create one with NewFuture.
type Future[T any] struct {
	env *Env
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

// Set resolves the future and wakes all waiters. Setting twice panics:
// a future models a single RPC reply or completion event.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.val = v
	if f.first == nil {
		return
	}
	f.env.wake(f.first)
	for _, w := range f.more {
		f.env.wake(w)
	}
	f.first, f.more = nil, nil
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.set }

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
	if f.set {
		return f.val, true
	}
	w := f.env.waiter()
	if f.first == nil {
		f.first = w
	} else {
		f.more = append(f.more, w)
	}
	f.env.parkDeadline(w, d)
	return f.val, f.set
}

// WaitGroup mirrors sync.WaitGroup for simulation processes.
type WaitGroup struct {
	env     *Env
	n       int
	waiters []*timer
}

// NewWaitGroup returns an empty wait group bound to env.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add adds delta to the counter; when it reaches zero, waiters resume.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		for _, p := range w.waiters {
			w.env.wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (w *WaitGroup) Wait() {
	if w.n == 0 {
		return
	}
	p := w.env.waiter()
	w.waiters = append(w.waiters, p)
	w.env.park(p)
}

// Semaphore is a counted resource usable from simulation processes.
// Acquire order is FIFO, which keeps resource contention deterministic.
type Semaphore struct {
	env   *Env
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
	if s.TryAcquire(n) {
		return
	}
	w := s.env.waiter()
	s.queue = append(s.queue, semWaiter{n: n, w: w})
	s.env.park(w)
}

// TryAcquire takes n permits if immediately available.
func (s *Semaphore) TryAcquire(n int) bool {
	if len(s.queue) == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n permits and wakes queued acquirers in FIFO order.
func (s *Semaphore) Release(n int) {
	s.avail += n
	for len(s.queue) > 0 && s.avail >= s.queue[0].n {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.avail -= w.n
		s.env.wake(w.w)
	}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Queue is an unbounded FIFO channel for simulation processes. Send
// never blocks; Recv blocks until an item is available.
type Queue[T any] struct {
	env     *Env
	items   []T
	waiters []*timer
	closed  bool
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Send enqueues an item, waking one waiting receiver if any.
func (q *Queue[T]) Send(v T) {
	if q.closed {
		panic("sim: send on closed Queue")
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.env.wake(w)
	}
}

// Close marks the queue closed; pending and future Recv calls drain
// remaining items then return ok=false.
func (q *Queue[T]) Close() {
	q.closed = true
	for _, w := range q.waiters {
		q.env.wake(w)
	}
	q.waiters = nil
}

// Recv dequeues the next item, blocking while the queue is empty.
// ok is false once the queue is closed and drained.
func (q *Queue[T]) Recv() (v T, ok bool) {
	for {
		if len(q.items) > 0 {
			v = q.items[0]
			q.items = q.items[1:]
			return v, true
		}
		if q.closed {
			return v, false
		}
		w := q.env.waiter()
		q.waiters = append(q.waiters, w)
		q.env.park(w)
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
