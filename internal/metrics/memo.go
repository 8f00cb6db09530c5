package metrics

// MemoCounters tracks a memoization cache: lookups it served, lookups
// that fell through to the computation, and flushes.
type MemoCounters struct {
	hits, misses, invalidations int64
}

// Hit records a served-from-cache lookup.
func (m *MemoCounters) Hit() { m.hits++ }

// Miss records a lookup that fell through to the computation.
func (m *MemoCounters) Miss() { m.misses++ }

// Invalidation records a cache flush (e.g. a model retrain).
func (m *MemoCounters) Invalidation() { m.invalidations++ }

// Snapshot reads the three counters.
func (m *MemoCounters) Snapshot() (hits, misses, invalidations int64) {
	return m.hits, m.misses, m.invalidations
}
