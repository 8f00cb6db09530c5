// Package store defines the narrow storage-engine contract the OFC
// cache data plane is built on. The proxy (core.RCLib), the router and
// the cache agents program against these interfaces, never against a
// concrete engine: the RAMCloud-like kvstore.Cluster is one Backend,
// the direct-RSDS Passthrough (cache-off mode) is another, and
// middleware — resilience, chunking, instrumentation — composes as
// Backend wrappers. Faa$T and InfiniCache both argue a FaaS cache tier
// belongs behind an interchangeable interface; this package is that
// seam for OFC.
package store

import (
	"ofc/internal/kvstore"
	"ofc/internal/simnet"
)

// The wire types are shared with the kvstore engine (which never
// imports this package, so the aliasing is cycle-free). Payloads are
// sized, content-free blobs — this is a simulation.
type (
	Blob        = kvstore.Blob
	Meta        = kvstore.Meta
	ObjectInfo  = kvstore.ObjectInfo
	Location    = kvstore.Location
	ReadResult  = kvstore.ReadResult
	WriteItem   = kvstore.WriteItem
	WriteResult = kvstore.WriteResult
)

// Sentinel errors shared across backends. A non-kvstore backend maps
// its native errors onto these so callers classify uniformly.
var (
	ErrNotFound = kvstore.ErrNotFound
	ErrNoSpace  = kvstore.ErrNoSpace
	ErrTooLarge = kvstore.ErrTooLarge
)

// Backend is the data-plane contract: per-object reads and writes with
// caller locality, tag metadata, and an explicit cache-tier Evict, which
// only drops a cached copy and is a no-op for durable backends.
type Backend interface {
	Read(caller simnet.NodeID, key string) (Blob, Meta, error)
	Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error)
	SetTag(caller simnet.NodeID, key, tag, value string) error
	Evict(key string) error
	// MaxObjectSize is the per-object ceiling; larger payloads must be
	// handled above the backend (bypass or chunking middleware).
	MaxObjectSize() int64
}

// BatchBackend is implemented by engines with native multi-object
// operations (one control round-trip per involved server). The layers
// that batch (Chunked, and Resilient below it) take one as their inner
// backend.
type BatchBackend interface {
	Backend
	ReadMulti(caller simnet.NodeID, keys []string) []ReadResult
	WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult
}

// PlacementView is the scheduler-side locality view (§6.5): where
// master copies live, without network charges. Engines without
// placement (durable passthrough) simply don't implement it.
type PlacementView interface {
	MasterOf(key string) (simnet.NodeID, bool)
	Locate(keys []string) []Location
}

// MemoryView is the elasticity-control view the cache agents (§6.4)
// need: per-node usage, grant enforcement, object census and the two
// reclamation verbs.
type MemoryView interface {
	Usage(node simnet.NodeID) (used, limit int64)
	SetMemoryLimit(node simnet.NodeID, limit int64) error
	Objects(node simnet.NodeID) []ObjectInfo
	Evict(key string) error
	MigrateToBackup(key string) error
}
