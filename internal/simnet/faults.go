package simnet

import (
	"errors"
	"math/rand"
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

// faults holds the mutable failure state of the fabric. Fault-free
// runs (the vast majority of transfers even in chaos drills) check the
// `any` hint on the hot path and never look at the maps.
type faults struct {
	any      bool // fast-path hint: at least one fault ever injected
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

// SeedFaults seeds the generator behind probabilistic faults (packet
// loss). Chaos schedules call it so loss draws are reproducible.
func (n *Network) SeedFaults(seed int64) {
	n.flt.rng = rand.New(rand.NewSource(seed))
}

// SetNodeDown fail-stops (or revives) a machine: transfers from or to
// it fail with ErrUnreachable, and every layer that asks the Node
// whether it is up hears the same answer.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	n.Node(id).down = down
	n.flt.any = true
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
	n.flt.link(a, b).partitioned = true
	n.flt.any = true
}

// Heal restores the link between a and b (partition only; degradation
// set via DegradeLink is cleared with ResetLink).
func (n *Network) Heal(a, b NodeID) {
	n.flt.link(a, b).partitioned = false
}

// DegradeLink multiplies the link's propagation latency by latFactor
// and its usable bandwidth by bwFactor (0 < bwFactor <= 1). Factors
// <= 0 are treated as 1 (no change).
func (n *Network) DegradeLink(a, b NodeID, latFactor, bwFactor float64) {
	l := n.flt.link(a, b)
	l.latFactor = latFactor
	l.bwFactor = bwFactor
	n.flt.any = true
}

// SetPacketLoss sets the per-transfer loss probability on the link;
// each lost packet costs one retransmission round trip plus the resend
// serialization.
func (n *Network) SetPacketLoss(a, b NodeID, p float64) {
	n.flt.link(a, b).lossProb = p
	n.flt.any = true
}

// ResetLink clears every fault (partition, degradation, loss) on the
// link.
func (n *Network) ResetLink(a, b NodeID) {
	delete(n.flt.links, mkLink(a, b))
}

// SetDiskFactor multiplies node's disk operation time by factor
// (factor <= 0 or == 1 restores full speed).
func (n *Network) SetDiskFactor(id NodeID, factor float64) {
	if factor <= 0 || factor == 1 {
		delete(n.flt.diskSlow, id)
	} else {
		n.flt.diskSlow[id] = factor
		n.flt.any = true
	}
}

// diskFactor returns node's current disk slowdown (>= 1).
func (n *Network) diskFactor(id NodeID) float64 {
	if !n.flt.any {
		return 1
	}
	if v, ok := n.flt.diskSlow[id]; ok && v > 1 {
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
	if !f.any {
		// Fault-free fabric: the common case, no map lookups.
		return out
	}
	if n.NodeDown(from) || n.NodeDown(to) {
		out.reachable = false
		return out
	}
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
