package store

import (
	"sort"
	"sync"
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
	Reads, Writes   int64
	ReadErrs        int64
	WriteErrs       int64
	Evicts, Deletes int64
	BytesRead       int64
	BytesWritten    int64
	BatchReads      int64 // ReadMulti calls
	BatchReadKeys   int64 // keys carried by those calls
	BatchWrites     int64 // WriteMulti calls
	BatchWriteItems int64
}

// Instrumented counts every operation crossing the backend boundary.
// It sits at the top of the middleware stack, so its numbers include
// whatever the layers below expand (e.g. one logical read of a striped
// object shows up as one Read here and N batch keys below).
type Instrumented struct {
	inner Backend
	env   *sim.Env

	mu  sync.Mutex
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

// Unwrap implements Wrapper.
func (n *Instrumented) Unwrap() Backend { return n.inner }

// Stats snapshots the counters.
func (n *Instrumented) Stats() OpStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.s
}

// LatencyQuantile returns the q-quantile (metrics.Quantile) of the
// recent Read/Write latency window, or 0 with no samples.
func (n *Instrumented) LatencyQuantile(q float64) time.Duration {
	n.mu.Lock()
	samples := make([]time.Duration, len(n.lat))
	copy(samples, n.lat)
	n.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return metrics.Quantile(samples, q)
}

// observeLocked records one op latency in the ring.
func (n *Instrumented) observeLocked(d time.Duration) {
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
	n.mu.Lock()
	n.s.Reads++
	if err != nil {
		n.s.ReadErrs++
	} else {
		n.s.BytesRead += blob.Size
	}
	n.observeLocked(n.env.Now() - start)
	n.mu.Unlock()
	return blob, meta, err
}

func (n *Instrumented) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	start := n.env.Now()
	ver, err := n.inner.Write(caller, key, blob, tags, preferred)
	n.mu.Lock()
	n.s.Writes++
	if err != nil {
		n.s.WriteErrs++
	} else {
		n.s.BytesWritten += blob.Size
	}
	n.observeLocked(n.env.Now() - start)
	n.mu.Unlock()
	return ver, err
}

func (n *Instrumented) Stat(caller simnet.NodeID, key string) (Meta, error) {
	return n.inner.Stat(caller, key)
}

func (n *Instrumented) SetTag(caller simnet.NodeID, key, tag, value string) error {
	return n.inner.SetTag(caller, key, tag, value)
}

func (n *Instrumented) Delete(caller simnet.NodeID, key string) error {
	err := n.inner.Delete(caller, key)
	n.mu.Lock()
	n.s.Deletes++
	n.mu.Unlock()
	return err
}

func (n *Instrumented) Evict(key string) error {
	err := n.inner.Evict(key)
	n.mu.Lock()
	n.s.Evicts++
	n.mu.Unlock()
	return err
}

func (n *Instrumented) MaxObjectSize() int64 { return n.inner.MaxObjectSize() }

func (n *Instrumented) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	out := ReadMulti(n.inner, caller, keys)
	n.mu.Lock()
	n.s.BatchReads++
	n.s.BatchReadKeys += int64(len(keys))
	for _, r := range out {
		if r.Err == nil {
			n.s.BytesRead += r.Blob.Size
		}
	}
	n.mu.Unlock()
	return out
}

func (n *Instrumented) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	out := WriteMulti(n.inner, caller, items, preferred)
	n.mu.Lock()
	n.s.BatchWrites++
	n.s.BatchWriteItems += int64(len(items))
	for i, r := range out {
		if r.Err == nil {
			n.s.BytesWritten += items[i].Blob.Size
		}
	}
	n.mu.Unlock()
	return out
}
