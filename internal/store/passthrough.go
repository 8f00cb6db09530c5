package store

import (
	"errors"
	"math"

	"ofc/internal/objstore"
	"ofc/internal/simnet"
)

// Passthrough is the cache-off backend: every operation goes straight
// to the RSDS. It turns the old "cache disabled" if-branches into a
// Backend implementation. Writes are durable on ack, so the proxy built
// over it (core.Options.CacheOff) skips shadows and persistors; Evict
// is a no-op because nothing is cached.
type Passthrough struct {
	rsds *objstore.Store
}

// NewPassthrough builds the direct-RSDS backend.
func NewPassthrough(rsds *objstore.Store) *Passthrough {
	return &Passthrough{rsds: rsds}
}

// mapErr translates objstore sentinels to the store vocabulary.
func mapErr(err error) error {
	if errors.Is(err, objstore.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// Read implements Backend. The RSDS keeps no State, so every object
// reads as the zero one.
func (p *Passthrough) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	blob, m, err := p.rsds.Get(caller, key, false)
	if err != nil {
		return Blob{}, Meta{}, mapErr(err)
	}
	return blob, Meta{Size: m.Size, Version: m.PersistedVersion}, nil
}

// Write implements Backend. The preferred node is ignored: the RSDS
// has one location, and the State is dropped: the write is durable on
// ack, so nothing is ever dirty.
func (p *Passthrough) Write(caller simnet.NodeID, key string, blob Blob, _ *State, _ simnet.NodeID) (uint64, error) {
	return p.rsds.Put(caller, key, blob, nil, false), nil
}

// MarkClean implements Backend: nothing is dirty, so there is nothing
// to clear, at any version. Always succeeds.
func (p *Passthrough) MarkClean(simnet.NodeID, string, uint64) error { return nil }

// Evict implements Backend: nothing is cached, so there is nothing to
// drop, at any version. Always succeeds.
func (p *Passthrough) Evict(string, uint64) error { return nil }

// MaxObjectSize implements Backend: the RSDS takes any size.
func (p *Passthrough) MaxObjectSize() int64 { return math.MaxInt64 }
