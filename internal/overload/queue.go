package overload

import (
	"errors"
	"fmt"
	"time"

	"ofc/internal/sim"
)

// ErrShed is the sentinel for load rejected by admission control.
// Match with errors.Is; the concrete error is a *ShedError carrying
// the tenant and the reason.
var ErrShed = errors.New("overload: request shed")

// ShedError reports one rejected admission.
type ShedError struct {
	Tenant string
	Reason string // "queue-full" or "stale"
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: request shed (tenant=%s, %s)", e.Tenant, e.Reason)
}

// Unwrap makes errors.Is(err, ErrShed) hold.
func (e *ShedError) Unwrap() error { return ErrShed }

// The admission gate's bounds. They are tight so that the overload
// drill's spike (experiments/overload.go) actually crosses them.
const (
	// maxConcurrent is the number of requests allowed past the gate at
	// once; further arrivals queue.
	maxConcurrent = 4
	// maxQueuePerTenant bounds one tenant's queue in Normal/Brownout;
	// arrivals beyond it are rejected immediately (queue-full).
	maxQueuePerTenant = 10
	// shedQueuePerTenant is the tighter per-tenant bound while the
	// degradation state machine is in Shed.
	shedQueuePerTenant = 4
	// codelTarget and codelInterval implement CoDel-style staleness
	// shedding: once dequeued head sojourn has stayed above codelTarget
	// for codelInterval, stale heads are dropped (stale) instead of
	// dispatched, so the queue sheds standing latency rather than
	// serving dead requests.
	codelTarget   = 500 * time.Millisecond
	codelInterval = 250 * time.Millisecond
)

// AdmissionStats counts gate outcomes.
type AdmissionStats struct {
	Admitted      int64 // passed the gate (fast path or dequeued)
	ShedQueueFull int64 // rejected at enqueue: tenant queue at bound
	ShedStale     int64 // dropped at dequeue: CoDel staleness
	MaxDepth      int   // high-water mark of total queued requests
}

// waiter is one queued admission request.
type waiter struct {
	tenant string
	enq    sim.Time
	f      *sim.Future[error]
}

// tenantQueue is one tenant's FIFO plus its fair-share pass value
// (stride scheduling with equal shares: pass advances by one per
// dispatch; the tenant with the smallest pass dequeues next).
type tenantQueue struct {
	q    []*waiter
	pass int64
}

// Admission is a bounded admission gate with per-tenant fair dequeue.
// Admit blocks the calling sim process until a slot frees or the
// request is shed. All waiting happens on sim futures, so the gate is
// deterministic under the virtual clock.
type Admission struct {
	env *sim.Env

	level      State
	inflight   int
	queued     int
	tenants    map[string]*tenantQueue
	virt       int64    // global virtual time: floor for new pass values
	firstAbove sim.Time // CoDel: since when head sojourn has exceeded codelTarget
	stats      AdmissionStats
}

// NewAdmission returns an idle gate bound to env.
func NewAdmission(env *sim.Env) *Admission {
	return &Admission{env: env, tenants: make(map[string]*tenantQueue)}
}

// SetLevel tells the gate the current degradation state; in Shed the
// tighter per-tenant queue bound applies to new arrivals.
func (a *Admission) SetLevel(s State) { a.level = s }

// Depth reports the number of queued (not yet admitted) requests.
func (a *Admission) Depth() int { return a.queued }

// Inflight reports the number of requests currently past the gate.
func (a *Admission) Inflight() int { return a.inflight }

// Stats snapshots the gate counters.
func (a *Admission) Stats() AdmissionStats { return a.stats }

func (a *Admission) queueOf(tenant string) *tenantQueue {
	tq := a.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		a.tenants[tenant] = tq
	}
	return tq
}

// Admit blocks until the request may proceed, returning a release
// function the caller must invoke when the work completes. A non-nil
// error is always a *ShedError (errors.Is ErrShed) and means the
// request was rejected without running.
func (a *Admission) Admit(tenant string) (release func(), err error) {
	if a.inflight < maxConcurrent && a.queued == 0 {
		a.inflight++
		a.stats.Admitted++
		return a.releaseOnce(), nil
	}
	limit := maxQueuePerTenant
	if a.level >= Shed {
		limit = shedQueuePerTenant
	}
	tq := a.queueOf(tenant)
	if len(tq.q) >= limit {
		a.stats.ShedQueueFull++
		return nil, &ShedError{Tenant: tenant, Reason: "queue-full"}
	}
	if len(tq.q) == 0 && tq.pass < a.virt {
		tq.pass = a.virt // newly backlogged tenant starts at the global floor
	}
	w := &waiter{tenant: tenant, enq: a.env.Now(), f: sim.NewFuture[error](a.env)}
	tq.q = append(tq.q, w)
	a.queued++
	if a.queued > a.stats.MaxDepth {
		a.stats.MaxDepth = a.queued
	}

	if werr := w.f.Wait(); werr != nil {
		return nil, werr
	}
	return a.releaseOnce(), nil
}

// releaseOnce returns the slot-release closure handed to an admitted
// caller; it is idempotent so sloppy callers cannot corrupt the gate.
func (a *Admission) releaseOnce() func() {
	released := false
	return func() {
		if released {
			return
		}
		released = true
		a.inflight--
		a.dispatch()
	}
}

// dispatch fills free slots from the queues: fair tenant selection
// (min pass, lexicographic tie-break), CoDel staleness check on each
// dequeued head, waking each waiter as it is decided. A waiter
// queues only while every slot is taken, and each release frees one,
// so a dispatch grants at most one waiter, after the ones it sheds.
func (a *Admission) dispatch() {
	now := a.env.Now()
	for a.inflight < maxConcurrent && a.queued > 0 {
		tq := a.minPass()
		w := tq.q[0]
		tq.q = tq.q[1:]
		a.queued--
		if a.stale(now, now-w.enq) {
			a.stats.ShedStale++
			w.f.Set(&ShedError{Tenant: w.tenant, Reason: "stale"})
			// Restart the interval measurement: at most one drop per
			// codelInterval of continued standing delay, so the queue
			// drains gradually instead of dumping its whole backlog.
			a.firstAbove = now
			continue
		}
		a.virt = tq.pass
		tq.pass++
		a.inflight++
		a.stats.Admitted++
		w.f.Set(nil)
	}
	if a.queued == 0 {
		a.firstAbove = 0
	}
}

// minPass picks the backlogged tenant with the smallest pass
// value, breaking ties by tenant name so dispatch order is a pure
// function of queue state.
func (a *Admission) minPass() *tenantQueue {
	var best *tenantQueue
	var bestName string
	for name, tq := range a.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && name < bestName) {
			best, bestName = tq, name
		}
	}
	return best
}

// stale implements the CoDel drop decision for a head with the
// given sojourn time: sojourn must exceed codelTarget, and must have
// done so continuously for codelInterval, before heads start being
// dropped.
func (a *Admission) stale(now sim.Time, sojourn time.Duration) bool {
	if sojourn <= codelTarget {
		a.firstAbove = 0
		return false
	}
	if a.firstAbove == 0 {
		a.firstAbove = now
		return false
	}
	return now-a.firstAbove >= codelInterval
}
