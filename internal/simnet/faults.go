package simnet

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ErrUnreachable is returned by the fallible transfer path when the
// destination (or the link to it) is down. The sender pays the failure
// detection delay before seeing it, as a real RPC layer pays a timeout.
var ErrUnreachable = errors.New("simnet: destination unreachable")

// linkKey identifies an undirected link; a <= b always.
type linkKey struct{ a, b NodeID }

func mkLink(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// linkState is the fault status of one link. Zero factors mean
// "healthy" (factor 1, no loss).
type linkState struct {
	partitioned bool
	latFactor   float64 // propagation latency multiplier
	bwFactor    float64 // bandwidth multiplier (0 < f <= 1 degrades)
	lossProb    float64 // per-transfer packet-loss probability
}

// faults holds the mutable failure state of the fabric. It lives on
// its own lock, and the `any` hint is atomic: fault-free runs (the
// vast majority of transfers even in chaos drills) check one atomic
// load on the hot path and never touch the mutex.
type faults struct {
	mu       sync.Mutex
	any      atomic.Bool // fast-path hint: at least one fault ever injected
	links    map[linkKey]*linkState
	diskSlow map[NodeID]float64
	rng      *rand.Rand
}

func newFaults() *faults {
	return &faults{
		links:    make(map[linkKey]*linkState),
		diskSlow: make(map[NodeID]float64),
		rng:      rand.New(rand.NewSource(0)),
	}
}

// faultState returns the fabric's failure state, allocated eagerly at
// Network construction so lookups need no lock.
func (n *Network) faultState() *faults {
	return n.flt
}

// SeedFaults seeds the generator behind probabilistic faults (packet
// loss). Chaos schedules call it so loss draws are reproducible.
func (n *Network) SeedFaults(seed int64) {
	f := n.faultState()
	f.mu.Lock()
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// SetNodeDown fail-stops (or revives) a machine: transfers from or to
// it fail with ErrUnreachable, and every layer that asks the Node
// whether it is up hears the same answer.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	n.Node(id).down.Store(down)
	n.flt.any.Store(true)
}

// NodeDown reports whether the machine is fail-stopped.
func (n *Network) NodeDown(id NodeID) bool { return n.Node(id).Down() }

func (f *faults) link(a, b NodeID) *linkState {
	k := mkLink(a, b)
	l := f.links[k]
	if l == nil {
		l = &linkState{}
		f.links[k] = l
	}
	return l
}

// Partition cuts the link between a and b (both directions).
func (n *Network) Partition(a, b NodeID) {
	f := n.faultState()
	f.mu.Lock()
	f.link(a, b).partitioned = true
	f.any.Store(true)
	f.mu.Unlock()
}

// Heal restores the link between a and b (partition only; degradation
// set via DegradeLink is cleared with ResetLink).
func (n *Network) Heal(a, b NodeID) {
	f := n.faultState()
	f.mu.Lock()
	f.link(a, b).partitioned = false
	f.mu.Unlock()
}

// DegradeLink multiplies the link's propagation latency by latFactor
// and its usable bandwidth by bwFactor (0 < bwFactor <= 1). Factors
// <= 0 are treated as 1 (no change).
func (n *Network) DegradeLink(a, b NodeID, latFactor, bwFactor float64) {
	f := n.faultState()
	f.mu.Lock()
	l := f.link(a, b)
	l.latFactor = latFactor
	l.bwFactor = bwFactor
	f.any.Store(true)
	f.mu.Unlock()
}

// SetPacketLoss sets the per-transfer loss probability on the link;
// each lost packet costs one retransmission round trip plus the resend
// serialization.
func (n *Network) SetPacketLoss(a, b NodeID, p float64) {
	f := n.faultState()
	f.mu.Lock()
	f.link(a, b).lossProb = p
	f.any.Store(true)
	f.mu.Unlock()
}

// ResetLink clears every fault (partition, degradation, loss) on the
// link.
func (n *Network) ResetLink(a, b NodeID) {
	f := n.faultState()
	f.mu.Lock()
	delete(f.links, mkLink(a, b))
	f.mu.Unlock()
}

// SetDiskFactor multiplies node's disk operation time by factor
// (factor <= 0 or == 1 restores full speed).
func (n *Network) SetDiskFactor(id NodeID, factor float64) {
	f := n.faultState()
	f.mu.Lock()
	if factor <= 0 || factor == 1 {
		delete(f.diskSlow, id)
	} else {
		f.diskSlow[id] = factor
		f.any.Store(true)
	}
	f.mu.Unlock()
}

// diskFactor returns node's current disk slowdown (>= 1).
func (n *Network) diskFactor(id NodeID) float64 {
	f := n.flt
	if !f.any.Load() {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.diskSlow[id]; ok && v > 1 {
		return v
	}
	return 1
}

// linkFaults is the snapshot the transfer path consults: reachable,
// latency/bandwidth multipliers and the number of retransmissions this
// transfer suffers (drawn once, deterministically given the fault RNG
// stream).
type linkFaults struct {
	reachable  bool
	latFactor  float64
	bwFactor   float64
	retransmit int
}

// lookFaults inspects the fault state for a transfer from -> to.
func (n *Network) lookFaults(from, to NodeID) linkFaults {
	out := linkFaults{reachable: true, latFactor: 1, bwFactor: 1}
	f := n.flt
	if !f.any.Load() {
		// Fault-free fabric: the common case costs one atomic load and
		// no lock, no map lookups.
		return out
	}
	if n.NodeDown(from) || n.NodeDown(to) {
		out.reachable = false
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.links[mkLink(from, to)]
	if l == nil {
		return out
	}
	if l.partitioned {
		out.reachable = false
		return out
	}
	if l.latFactor > 0 {
		out.latFactor = l.latFactor
	}
	if l.bwFactor > 0 && l.bwFactor < 1 {
		out.bwFactor = l.bwFactor
	}
	if l.lossProb > 0 {
		// Geometric retransmission count, capped so a lossy link slows
		// transfers down rather than wedging them.
		for out.retransmit < 3 && f.rng.Float64() < l.lossProb {
			out.retransmit++
		}
	}
	return out
}
