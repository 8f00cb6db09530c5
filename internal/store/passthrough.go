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

// Read implements Backend.
func (p *Passthrough) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	blob, m, err := p.rsds.Get(caller, key, false)
	if err != nil {
		return Blob{}, Meta{}, mapErr(err)
	}
	// The user metadata doubles as the tag map, so tags written through
	// this backend round-trip.
	return blob, Meta{Size: m.Size, Version: m.PersistedVersion, Tags: m.UserMeta}, nil
}

// Write implements Backend. The preferred node is ignored: the RSDS
// has one location.
func (p *Passthrough) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, _ simnet.NodeID) (uint64, error) {
	return p.rsds.Put(caller, key, blob, tags, false), nil
}

// SetTag implements Backend by rewriting the object's user metadata in
// place (a metadata-only POST; no payload moves, no version bump).
func (p *Passthrough) SetTag(caller simnet.NodeID, key, tag, value string) error {
	return mapErr(p.rsds.SetUserMeta(key, tag, value))
}

// Evict implements Backend: nothing is cached, so there is nothing to
// drop. Always succeeds.
func (p *Passthrough) Evict(key string) error { return nil }

// MaxObjectSize implements Backend: the RSDS takes any size.
func (p *Passthrough) MaxObjectSize() int64 { return math.MaxInt64 }
