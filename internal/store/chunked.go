package store

import (
	"fmt"

	"ofc/internal/kvstore"
	"ofc/internal/simnet"
)

// DefaultChunkSize is the stripe size of the large-object extension
// (§6.1 leaves arbitrary object sizes as future work; 8 MB stripes
// keep each piece a regular replicated cache object).
const DefaultChunkSize = 8 << 20

// chunkManifest records one striped object: stripe count, logical
// size, a synthetic version, and the State the proxy wrote it with,
// which the stripes themselves do not carry.
type chunkManifest struct {
	n       int
	size    int64
	version uint64
	state   State
}

// Chunked is transparent large-object striping middleware: writes
// above the inner backend's per-object ceiling are striped across
// "key#i" chunk objects (each a regular replicated object of
// KindChunk, which only this layer frees, whole with its object), reads
// reassemble them through the batch path, and the synthesized metadata
// carries the object's State — so the proxy's write-back and
// consistency machinery works on striped objects without knowing they
// are striped.
//
// The faithful-paper configuration leaves the layer out of the stack
// altogether (core.Options.Chunking); the proxy stacks it only over the
// cache engine, whose per-object ceiling is what it stripes around.
type Chunked struct {
	inner     BatchBackend
	chunkSize int64

	manifests map[string]chunkManifest
}

// NewChunked wraps inner with the striping layer.
func NewChunked(inner BatchBackend, chunkSize int64) *Chunked {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Chunked{
		inner:     inner,
		chunkSize: chunkSize,
		manifests: make(map[string]chunkManifest),
	}
}

func chunkKey(key string, i int) string { return fmt.Sprintf("%s#%d", key, i) }

// MaxObjectSize implements Backend: the logical ceiling is effectively
// unbounded; callers' bypass decisions follow.
func (c *Chunked) MaxObjectSize() int64 { return 1 << 50 }

// Write implements Backend. Oversized payloads are striped through the
// batch path (one bulk round per involved server). Whatever the key held
// before goes: the stripes of an older, longer object past the new
// count, and a plain copy a striped object replaces. A failed stripe
// aborts the whole write and leaves the key uncached.
func (c *Chunked) Write(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID) (uint64, error) {
	if blob.Size <= c.inner.MaxObjectSize() {
		// Overwriting a previously striped key with a small payload
		// invalidates the old stripes.
		if m, ok := c.manifests[key]; ok {
			c.dropStripes(key, m.n)
		}
		return c.inner.Write(caller, key, blob, st, preferred)
	}
	n := int((blob.Size + c.chunkSize - 1) / c.chunkSize)
	items := make([]WriteItem, 0, n)
	remaining := blob.Size
	for i := 0; i < n; i++ {
		sz := remaining
		if sz > c.chunkSize {
			sz = c.chunkSize
		}
		remaining -= sz
		items = append(items, WriteItem{
			Key:   chunkKey(key, i),
			Blob:  Blob{Size: sz},
			State: State{Kind: kvstore.KindChunk},
		})
	}
	res := c.inner.WriteMulti(caller, items, preferred)
	var version uint64
	for i, r := range res {
		if r.Err != nil {
			// Abort: drop the stripes that did land, then the old object.
			for j := range res {
				if res[j].Err == nil {
					c.inner.Evict(items[j].Key, 0)
				}
			}
			c.Evict(key, 0)
			return 0, res[i].Err
		}
		if r.Version > version {
			version = r.Version
		}
	}
	old := c.manifests[key]
	m := chunkManifest{n: n, size: blob.Size, version: version}
	if st != nil {
		m.state = *st
	}
	c.manifests[key] = m
	for i := n; i < old.n; i++ {
		c.inner.Evict(chunkKey(key, i), 0)
	}
	c.inner.Evict(key, 0)
	return version, nil
}

// Read implements Backend: striped objects are reassembled through the
// batch path; a missing stripe fails the whole read (the caller falls
// back to the RSDS, as for any miss). Its Meta is the manifest the read
// began with, so a fence at that version misses a rewrite meanwhile.
func (c *Chunked) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	m, ok := c.manifests[key]
	if !ok {
		return c.inner.Read(caller, key)
	}
	keys := make([]string, m.n)
	for i := range keys {
		keys[i] = chunkKey(key, i)
	}
	var total int64
	for _, r := range c.inner.ReadMulti(caller, keys) {
		if r.Err != nil {
			return Blob{}, Meta{}, r.Err
		}
		total += r.Blob.Size
	}
	return Blob{Size: total}, Meta{Size: m.size, Version: m.version, State: m.state}, nil
}

// MarkClean implements Backend: a striped object's State lives in its
// manifest, whose version the fence checks.
func (c *Chunked) MarkClean(caller simnet.NodeID, key string, version uint64) error {
	if m, ok := c.manifests[key]; ok {
		if version != 0 && m.version != version {
			return ErrNotFound
		}
		m.state.Dirty = false
		c.manifests[key] = m
		return nil
	}
	return c.inner.MarkClean(caller, key, version)
}

// dropStripes evicts every stripe of key and forgets the manifest.
func (c *Chunked) dropStripes(key string, n int) {
	for i := 0; i < n; i++ {
		c.inner.Evict(chunkKey(key, i), 0)
	}
	delete(c.manifests, key)
}

// Evict implements Backend: evicting a striped object drops every
// stripe (pipeline cleanup, final-output discard, external
// invalidation), fenced at the manifest's version.
func (c *Chunked) Evict(key string, version uint64) error {
	if m, ok := c.manifests[key]; ok {
		if version != 0 && m.version != version {
			return ErrNotFound
		}
		c.dropStripes(key, m.n)
		return nil
	}
	return c.inner.Evict(key, version)
}
