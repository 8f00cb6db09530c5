package core

import (
	"ofc/internal/faas"
	"ofc/internal/store"
)

// Router implements OFC's request routing (§6.5) as a faas.Router.
//
// A warm idle sandbox is always preferred (avoid cold starts); among
// several, selection follows the paper's priority order: (i) smallest
// gap between the sandbox's current memory and the predicted need,
// (ii) available node memory when the sandbox must grow, (iii) data
// locality (node mastering the requested objects), (iv) most recently
// used sandbox. When a new sandbox is needed, the node mastering the
// in-memory cached copy of the input data is preferred if it has
// sufficient resources.
//
// The router sees the cache only through its placement view; it works
// unchanged over any storage engine, and degrades to pure
// capacity-based routing when the engine has no placement (cache-off).
type Router struct {
	pv       store.PlacementView // nil when the backend has no placement
	brownout bool
}

// NewRouter builds the OFC routing policy over a placement view (nil
// disables locality).
func NewRouter(pv store.PlacementView) *Router { return &Router{pv: pv} }

// SetBrownout switches locality routing off (on=true) or back on. In
// brownout the data-locality pull concentrates load exactly where
// memory is already contended, so the overload controller trades hit
// locality for load spreading.
func (r *Router) SetBrownout(on bool) { r.brownout = on }

// dataNode returns the node mastering the majority of the request's
// input *bytes* — multi-input functions are pulled toward the node
// where most of their data lives, not wherever the first key happens
// to be. Ties break toward the lowest node ID so routing stays
// deterministic. Returns -1 when nothing is cached.
func (r *Router) dataNode(keys []string) int {
	if r.pv == nil || len(keys) == 0 || r.brownout {
		return -1
	}
	// Bytes per node, indexed by node id; clusters of up to 16 nodes are
	// weighed on the stack.
	var small [16]int64
	weight := small[:]
	for _, loc := range r.pv.Locate(keys) {
		if !loc.OK {
			continue
		}
		if over := int(loc.Node) + 1 - len(weight); over > 0 {
			weight = append(weight, make([]int64, over)...)
		}
		sz := loc.Size
		if sz < 1 {
			// Zero-sized placements still vote: presence is locality.
			sz = 1
		}
		weight[loc.Node] += sz
	}
	best, bestW := -1, int64(0)
	for node, w := range weight {
		if w > bestW {
			best, bestW = node, w
		}
	}
	return best
}

// Route implements faas.Router.
func (r *Router) Route(req *faas.Request, all []*faas.Invoker, warmIdle []*faas.Invoker) *faas.Invoker {
	wanted := req.PredictedMem()
	if wanted == 0 {
		wanted = req.Function.MemoryBooked
	}
	dataNode := r.dataNode(req.InputKeys)

	if len(warmIdle) > 0 {
		best := warmIdle[0]
		bestMem, _ := best.IdleSandboxMem(req.Function, wanted)
		for _, cand := range warmIdle[1:] {
			mem, _ := cand.IdleSandboxMem(req.Function, wanted)
			if better(req, wanted, dataNode, cand, mem, best, bestMem) {
				best, bestMem = cand, mem
			}
		}
		return best
	}

	// New sandbox: prefer the node holding the master copy of the
	// input data if it has the resources (counting cache memory the
	// governor can reclaim).
	if dataNode >= 0 {
		for _, inv := range all {
			if int(inv.Node()) == dataNode && inv.Capacity()-inv.Reserved() >= wanted {
				return inv
			}
		}
	}
	// Fall back to the platform's default (home hashing) by returning
	// nil.
	return nil
}

// better applies the §6.5 priority order between two candidate warm
// invokers.
func better(req *faas.Request, wanted int64, dataNode int, cand *faas.Invoker, candMem int64, best *faas.Invoker, bestMem int64) bool {
	// (i) smallest |current - wanted|.
	cGap, bGap := abs64(candMem-wanted), abs64(bestMem-wanted)
	if cGap != bGap {
		return cGap < bGap
	}
	// (ii) available memory if the sandbox must grow.
	if candMem < wanted || bestMem < wanted {
		cFree, bFree := cand.FreeForSandboxes()+cand.CacheGrant(), best.FreeForSandboxes()+best.CacheGrant()
		if cFree != bFree {
			return cFree > bFree
		}
	}
	// (iii) data locality.
	cLocal := int(cand.Node()) == dataNode
	bLocal := int(best.Node()) == dataNode
	if cLocal != bLocal {
		return cLocal
	}
	// (iv) keep the platform's order otherwise (most recently used is
	// already the invoker's internal idle-sandbox preference).
	return false
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
