package store

import (
	"sort"
	"time"

	"ofc/internal/metrics"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// OpStats are the raw backend-operation counters of one Instrumented
// layer: what actually crossed the storage-engine boundary, before any
// proxy policy (hit/miss accounting lives in the proxy; this layer
// sees the physical traffic).
type OpStats struct {
	Reads, Writes int64
	ReadErrs      int64
	WriteErrs     int64
	// The batch counters count nothing: the proxy never batches
	// through the top of its stack (the chunking layer batches on the
	// layer below it), so Instrumented has no ReadMulti. They stay
	// because benchmark/layers.go reads them; a benchmark change may
	// drop them.
	BatchReads    int64
	BatchReadKeys int64
}

// Instrumented counts every operation crossing the backend boundary.
// It sits at the top of the middleware stack, so its numbers include
// whatever the layers below expand (e.g. one logical read of a striped
// object shows up as one Read here and N batch keys below).
type Instrumented struct {
	inner Backend
	env   *sim.Env

	s   OpStats
	lat []time.Duration
	nxt int
}

// latencyWindow is the ring size of the recent Read/Write latency
// samples kept for quantile queries (the overload controller's "store
// RPC latency" signal).
const latencyWindow = 512

// NewInstrumented wraps inner with operation counters and per-op
// latency tracking against env's virtual clock.
func NewInstrumented(env *sim.Env, inner Backend) *Instrumented {
	return &Instrumented{inner: inner, env: env}
}

// Stats snapshots the counters.
func (n *Instrumented) Stats() OpStats { return n.s }

// LatencyQuantile returns the q-quantile (metrics.Quantile) of the
// recent Read/Write latency window, or 0 with no samples.
func (n *Instrumented) LatencyQuantile(q float64) time.Duration {
	samples := make([]time.Duration, len(n.lat))
	copy(samples, n.lat)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return metrics.Quantile(samples, q)
}

// observe records one op latency in the ring.
func (n *Instrumented) observe(d time.Duration) {
	if len(n.lat) < latencyWindow {
		n.lat = append(n.lat, d)
		return
	}
	n.lat[n.nxt] = d
	n.nxt = (n.nxt + 1) % latencyWindow
}

func (n *Instrumented) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	start := n.env.Now()
	blob, meta, err := n.inner.Read(caller, key)
	n.s.Reads++
	if err != nil {
		n.s.ReadErrs++
	}
	n.observe(n.env.Now() - start)
	return blob, meta, err
}

func (n *Instrumented) Write(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID) (uint64, error) {
	start := n.env.Now()
	ver, err := n.inner.Write(caller, key, blob, st, preferred)
	n.s.Writes++
	if err != nil {
		n.s.WriteErrs++
	}
	n.observe(n.env.Now() - start)
	return ver, err
}

func (n *Instrumented) MarkClean(caller simnet.NodeID, key string) error {
	return n.inner.MarkClean(caller, key)
}

func (n *Instrumented) Evict(key string) error { return n.inner.Evict(key) }

func (n *Instrumented) MaxObjectSize() int64 { return n.inner.MaxObjectSize() }
