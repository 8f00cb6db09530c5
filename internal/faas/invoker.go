package faas

import (
	"slices"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// sandboxState tracks the lifecycle of a container.
type sandboxState int

const (
	sandboxIdle sandboxState = iota
	sandboxBusy
	sandboxDead
)

// Sandbox is a function container: one function, one invocation at a
// time, kept alive between invocations.
type Sandbox struct {
	fn       *Function
	mem      int64 // current cgroup memory limit
	state    sandboxState
	lastUsed sim.Time

	// Keep-alive: at most one timer per sandbox sits in the event heap.
	// armed says it is there; expire is its callback, allocated once with
	// the sandbox (see keepAliveFired).
	armed  bool
	expire func()

	// ctx is the invocation context of the body the sandbox runs;
	// execute resets it for each one.
	ctx Ctx
}

// bookedWaste is the part of fn's booked memory that a sandbox limited
// to mem bytes does not hold.
func bookedWaste(fn *Function, mem int64) int64 {
	if d := fn.MemoryBooked - mem; d > 0 {
		return d
	}
	return 0
}

// Invoker is the per-node worker component: it reports node status to
// the Loadbalancer, creates and resizes sandboxes, and runs
// invocations. Whether the node is up and how much of its memory the
// cache holds are the node's facts (simnet.Node's Down and Grant); the
// invoker reads them there and keeps only the sandboxes' books.
type Invoker struct {
	p        *Platform
	node     *simnet.Node
	capacity int64

	// storage is the node-local data-plane binding handed to function
	// bodies.
	storage Storage

	// The books on live (idle + busy) sandboxes, kept as sandboxes come
	// and go instead of recounted per query: the sandboxes of each
	// function in creation order, their number, and their BookedWaste.
	sandboxes map[*Function][]*Sandbox
	live      int
	waste     int64
	reserved  int64 // Σ sandbox memory limits

	// stats
	created, expired int64
}

func newInvoker(p *Platform, node simnet.NodeID, capacity int64, storage Storage) *Invoker {
	return &Invoker{
		p:         p,
		node:      p.net.Node(node),
		capacity:  capacity,
		storage:   storage,
		sandboxes: make(map[*Function][]*Sandbox),
	}
}

// Node returns the worker's node id.
func (inv *Invoker) Node() simnet.NodeID { return inv.node.ID }

// Down reports whether the worker's node is fail-stopped: no
// placements until it restarts.
func (inv *Invoker) Down() bool { return inv.node.Down() }

// Crash is the worker's part of a fail-stop of its node, which the
// fabric has already marked down: every sandbox dies with the machine,
// and the memory the machine split between sandboxes and the cache is
// gone, so the sandbox reservations and the cache grant are zero. The
// node comes back empty.
func (inv *Invoker) Crash() {
	for _, list := range inv.sandboxes {
		for _, sb := range list {
			sb.state = sandboxDead
		}
	}
	clear(inv.sandboxes)
	inv.expired += int64(inv.live)
	inv.live, inv.waste = 0, 0
	inv.reserved = 0
	inv.node.SetGrant(0)
}

// Capacity returns the node's total sandbox-usable memory.
func (inv *Invoker) Capacity() int64 { return inv.capacity }

// Reserved returns the memory currently reserved by sandboxes.
func (inv *Invoker) Reserved() int64 { return inv.reserved }

// CacheGrant returns the bytes currently granted to the cache.
func (inv *Invoker) CacheGrant() int64 { return inv.node.Grant() }

// SetCacheGrant adjusts the cache's share of node memory, which the
// cache's storage server on the node enforces as its limit. Growing
// the grant beyond free capacity is rejected (returns the grant
// actually in force).
func (inv *Invoker) SetCacheGrant(bytes int64) int64 {
	bytes = min(bytes, inv.capacity-inv.reserved)
	bytes = max(bytes, 0)
	inv.node.SetGrant(bytes)
	return bytes
}

// FreeForSandboxes is the memory available for new sandbox
// reservations without shrinking the cache.
func (inv *Invoker) FreeForSandboxes() int64 {
	return inv.capacity - inv.reserved - inv.node.Grant()
}

// BookedWaste is the memory tenants booked for the live sandboxes but
// that the sandboxes do not hold — the quantity OFC is entitled to
// hoard ("the difference between the booked memory and the predicted
// size is used for increasing the size of the cache", §1).
func (inv *Invoker) BookedWaste() int64 { return inv.waste }

// idleSandbox returns an idle warm sandbox for fn, or nil. The
// preferred selection among several idle sandboxes follows §6.5:
// smallest |current - wanted| memory gap first, most recently used as
// tie-break; a full tie goes to the earliest-created sandbox.
func (inv *Invoker) idleSandbox(fn *Function, wanted int64) *Sandbox {
	var best *Sandbox
	var bestGap int64
	for _, sb := range inv.sandboxes[fn] {
		if sb.state != sandboxIdle {
			continue
		}
		gap := sb.mem - wanted
		if gap < 0 {
			gap = -gap
		}
		if best == nil || gap < bestGap || (gap == bestGap && sb.lastUsed > best.lastUsed) {
			best, bestGap = sb, gap
		}
	}
	return best
}

// HasIdleSandbox reports whether a warm idle sandbox exists for fn.
func (inv *Invoker) HasIdleSandbox(fn *Function) bool {
	for _, sb := range inv.sandboxes[fn] {
		if sb.state == sandboxIdle {
			return true
		}
	}
	return false
}

// IdleSandboxMem returns the memory of the best idle sandbox for fn
// and whether one exists (the §6.5 routing criterion (i)).
func (inv *Invoker) IdleSandboxMem(fn *Function, wanted int64) (int64, bool) {
	sb := inv.idleSandbox(fn, wanted)
	if sb == nil {
		return 0, false
	}
	return sb.mem, true
}

// reserve grabs bytes of sandbox memory, shrinking the cache through
// the Governor when needed. It returns the cache-scaling time spent on
// the critical path.
func (inv *Invoker) reserve(bytes int64) (time.Duration, error) {
	free := inv.FreeForSandboxes()
	if free >= bytes {
		inv.reserved += bytes
		return 0, nil
	}
	need := bytes - free
	if inv.node.Grant() < need || inv.p.Governor == nil {
		return 0, ErrNoCapacity
	}
	took, err := inv.p.Governor.Reclaim(inv.node.ID, need)
	if err != nil {
		return took, err
	}
	if inv.FreeForSandboxes() < bytes {
		// Governor freed the grant but someone raced us; treat as no
		// capacity rather than looping (callers retry at a higher level).
		return took, ErrNoCapacity
	}
	inv.reserved += bytes
	return took, nil
}

// release returns sandbox memory to the free pool.
func (inv *Invoker) release(bytes int64) {
	inv.reserved -= bytes
	if inv.reserved < 0 {
		inv.reserved = 0
	}
}

// createSandbox cold-starts a container with the given memory. A
// container whose node failed while it was starting is dead on arrival:
// it never enters the books of the (empty) node.
func (inv *Invoker) createSandbox(fn *Function, mem int64) (*Sandbox, time.Duration, error) {
	scale, err := inv.reserve(mem)
	if err != nil {
		return nil, scale, err
	}
	inv.p.env.Sleep(coldStart)
	sb := &Sandbox{fn: fn, mem: mem, state: sandboxBusy, lastUsed: inv.p.env.Now()}
	sb.expire = func() { inv.keepAliveFired(sb) }
	if inv.node.Down() {
		sb.state = sandboxDead
	} else {
		inv.sandboxes[fn] = append(inv.sandboxes[fn], sb)
		inv.live++
		inv.waste += bookedWaste(fn, mem)
	}
	inv.created++
	return sb, scale, nil
}

// resize updates a sandbox's memory limit. Per §6.4 the cgroup call is
// executed asynchronously off the invocation critical path; growing
// may first require the cache to shrink (critical-path cost returned).
// The caller owns sb (it is busy), so sb.mem cannot change under it.
func (inv *Invoker) resize(sb *Sandbox, newMem int64) (time.Duration, error) {
	var scale time.Duration
	delta := newMem - sb.mem
	if delta > 0 {
		var err error
		scale, err = inv.reserve(delta)
		if err != nil {
			return scale, err
		}
	}
	if sb.state == sandboxDead {
		// The node failed under the invocation and took the sandbox off
		// the books: hand back what was just reserved for it.
		if delta > 0 {
			inv.release(delta)
		}
	} else {
		if delta < 0 {
			inv.release(-delta)
		}
		inv.waste += bookedWaste(sb.fn, newMem) - bookedWaste(sb.fn, sb.mem)
	}
	sb.mem = newMem
	// The cgroup syscall + docker update run asynchronously.
	inv.p.env.Go(func() { inv.p.env.Sleep(ResizeLatency) })
	return scale, nil
}

// destroySandbox retires a container and frees its memory. Retiring a
// dead sandbox again is a no-op.
func (inv *Invoker) destroySandbox(sb *Sandbox) {
	if sb.state == sandboxDead {
		return
	}
	sb.state = sandboxDead
	list := inv.sandboxes[sb.fn]
	if i := slices.Index(list, sb); i >= 0 {
		inv.sandboxes[sb.fn] = slices.Delete(list, i, i+1)
	}
	inv.live--
	inv.waste -= bookedWaste(sb.fn, sb.mem)
	inv.expired++
	inv.release(sb.mem)
}

// parkSandbox moves a sandbox to idle and makes sure its keep-alive
// timer is pending. A sandbox that died under its invocation (node
// failure) stays dead.
func (inv *Invoker) parkSandbox(sb *Sandbox) {
	if sb.state == sandboxDead {
		return
	}
	sb.state = sandboxIdle
	sb.lastUsed = inv.p.env.Now()
	arm := !sb.armed
	sb.armed = true
	if arm {
		inv.p.env.After(inv.p.cfg.KeepAlive, sb.expire)
	}
}

// keepAliveFired is the keep-alive timer's callback. The timer is
// re-armed lazily: a park leaves a pending timer where it is, so when
// it fires the sandbox may have been used since. Busy or dead, there is
// nothing to do (the next park arms a new timer); idle but used again
// since the timer was armed, the timer moves to lastUsed + KeepAlive;
// otherwise the sandbox has been idle for exactly KeepAlive and expires.
func (inv *Invoker) keepAliveFired(sb *Sandbox) {
	var left time.Duration
	if sb.state == sandboxIdle {
		if left = sb.lastUsed + inv.p.cfg.KeepAlive - inv.p.env.Now(); left <= 0 {
			inv.destroySandbox(sb)
		}
	}
	sb.armed = left > 0
	if left > 0 {
		inv.p.env.After(left, sb.expire)
	}
}

// claim takes an idle sandbox for a new invocation.
func (inv *Invoker) claim(sb *Sandbox) bool {
	if sb.state != sandboxIdle {
		return false
	}
	sb.state = sandboxBusy
	return true
}

// SandboxCount reports live sandboxes (idle + busy).
func (inv *Invoker) SandboxCount() int { return inv.live }

// Lifecycle reports cumulative created/expired sandbox counters.
func (inv *Invoker) Lifecycle() (created, expired int64) { return inv.created, inv.expired }
