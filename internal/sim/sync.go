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

// Reset returns a resolved future to the unset state, so that its owner
// can hand it to the next operation instead of allocating another. Only
// the owner may call it, and only once nothing else can still Set or
// wait on it: after a WaitTimeout that obtained the value, never after
// one that timed out, whose abandoned operation still holds the future
// and will Set it. Resetting a future that still has a parked waiter
// panics.
func (f *Future[T]) Reset() {
	if f.first != nil {
		panic("sim: Reset of a Future with waiters")
	}
	var zero T
	f.set, f.val = false, zero
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
