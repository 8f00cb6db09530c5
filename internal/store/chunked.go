package store

import (
	"fmt"
	"maps"
	"sync"

	"ofc/internal/simnet"
)

// DefaultChunkSize is the stripe size of the large-object extension
// (§6.1 leaves arbitrary object sizes as future work; 8 MB stripes
// keep each piece a regular replicated cache object).
const DefaultChunkSize = 8 << 20

// chunkManifest records one striped object: stripe count, logical
// size, a synthetic version, and the logical tags the proxy attached
// (kind/dirty/version…), which the stripes themselves do not carry.
type chunkManifest struct {
	n       int
	size    int64
	version uint64
	tags    map[string]string
}

// Chunked is transparent large-object striping middleware: writes
// above the inner backend's per-object ceiling are striped across
// "key#i" chunk objects (each a regular replicated object, tagged
// kind=chunk), reads reassemble them through the batch path, and the
// synthesized metadata carries the logical tags — so the proxy's
// write-back and consistency machinery works on striped objects
// without knowing they are striped.
//
// The faithful-paper configuration leaves the layer out of the stack
// altogether (core.Options.Chunking).
type Chunked struct {
	inner     Backend
	chunkSize int64

	mu        sync.Mutex
	manifests map[string]chunkManifest
}

// NewChunked wraps inner with the striping layer.
func NewChunked(inner Backend, chunkSize int64) *Chunked {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Chunked{
		inner:     inner,
		chunkSize: chunkSize,
		manifests: make(map[string]chunkManifest),
	}
}

// Unwrap implements Wrapper.
func (c *Chunked) Unwrap() Backend { return c.inner }

func chunkKey(key string, i int) string { return fmt.Sprintf("%s#%d", key, i) }

func (c *Chunked) manifest(key string) (chunkManifest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.manifests[key]
	return m, ok
}

// MaxObjectSize implements Backend: the logical ceiling is effectively
// unbounded; callers' bypass decisions follow.
func (c *Chunked) MaxObjectSize() int64 { return 1 << 50 }

// Write implements Backend. Oversized payloads are striped through the
// batch path (one bulk round per involved server); a failed stripe
// aborts the whole write and evicts the pieces already placed.
func (c *Chunked) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	if blob.Size <= c.inner.MaxObjectSize() {
		// Overwriting a previously striped key with a small payload
		// invalidates the old stripes.
		if m, ok := c.manifest(key); ok {
			c.dropStripes(key, m.n)
		}
		return c.inner.Write(caller, key, blob, tags, preferred)
	}
	n := int((blob.Size + c.chunkSize - 1) / c.chunkSize)
	items := make([]WriteItem, 0, n)
	stripeTags := map[string]string{"kind": "chunk", "of": key, "dirty": "0"}
	remaining := blob.Size
	for i := 0; i < n; i++ {
		sz := remaining
		if sz > c.chunkSize {
			sz = c.chunkSize
		}
		remaining -= sz
		items = append(items, WriteItem{
			Key:  chunkKey(key, i),
			Blob: Blob{Size: sz},
			Tags: stripeTags,
		})
	}
	res := WriteMulti(c.inner, caller, items, preferred)
	var version uint64
	for i, r := range res {
		if r.Err != nil {
			// Abort: drop the stripes that did land.
			for j := range res {
				if res[j].Err == nil {
					c.inner.Evict(items[j].Key)
				}
			}
			return 0, res[i].Err
		}
		if r.Version > version {
			version = r.Version
		}
	}
	c.mu.Lock()
	c.manifests[key] = chunkManifest{n: n, size: blob.Size, version: version, tags: tags}
	c.mu.Unlock()
	return version, nil
}

// Read implements Backend: striped objects are reassembled through the
// batch path; a missing stripe fails the whole read (the caller falls
// back to the RSDS, as for any miss).
func (c *Chunked) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	m, ok := c.manifest(key)
	if !ok {
		return c.inner.Read(caller, key)
	}
	keys := make([]string, m.n)
	for i := range keys {
		keys[i] = chunkKey(key, i)
	}
	var total int64
	for _, r := range ReadMulti(c.inner, caller, keys) {
		if r.Err != nil {
			return Blob{}, Meta{}, r.Err
		}
		total += r.Blob.Size
	}
	return Blob{Size: total}, c.synthMeta(key), nil
}

// synthMeta builds the logical metadata of a striped object from its
// manifest.
func (c *Chunked) synthMeta(key string) Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.manifests[key]
	return Meta{Size: m.size, Version: m.version, Tags: m.tags}
}

// Stat implements Backend.
func (c *Chunked) Stat(caller simnet.NodeID, key string) (Meta, error) {
	if _, ok := c.manifest(key); ok {
		return c.synthMeta(key), nil
	}
	return c.inner.Stat(caller, key)
}

// SetTag implements Backend: for striped objects the logical tags live
// in the manifest (the proxy's dirty-flag clears land here), which gets
// a modified copy, as a kvstore master does.
func (c *Chunked) SetTag(caller simnet.NodeID, key, tag, value string) error {
	c.mu.Lock()
	if m, ok := c.manifests[key]; ok {
		tags := maps.Clone(m.tags)
		if tags == nil {
			tags = make(map[string]string)
		}
		tags[tag] = value
		m.tags = tags
		c.manifests[key] = m
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	return c.inner.SetTag(caller, key, tag, value)
}

// dropStripes evicts every stripe of key and forgets the manifest.
func (c *Chunked) dropStripes(key string, n int) {
	for i := 0; i < n; i++ {
		c.inner.Evict(chunkKey(key, i))
	}
	c.mu.Lock()
	delete(c.manifests, key)
	c.mu.Unlock()
}

// Delete implements Backend.
func (c *Chunked) Delete(caller simnet.NodeID, key string) error {
	if m, ok := c.manifest(key); ok {
		c.dropStripes(key, m.n)
		return nil
	}
	return c.inner.Delete(caller, key)
}

// Evict implements Backend: evicting a striped object drops every
// stripe (pipeline cleanup, final-output discard, external
// invalidation).
func (c *Chunked) Evict(key string) error {
	if m, ok := c.manifest(key); ok {
		c.dropStripes(key, m.n)
		return nil
	}
	return c.inner.Evict(key)
}
