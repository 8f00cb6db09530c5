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
	State       = kvstore.State
	ObjectInfo  = kvstore.ObjectInfo
	Location    = kvstore.Location
	ReadResult  = kvstore.ReadResult
	WriteItem   = kvstore.WriteItem
	WriteResult = kvstore.WriteResult
)

// ErrNotFound is the miss every backend reports; a non-kvstore backend
// maps its native miss onto it so callers classify uniformly.
var ErrNotFound = kvstore.ErrNotFound

// Backend is the data-plane contract: per-object reads and writes with
// caller locality and each object's State (nil writes the zero State),
// which a cache tier keeps and MarkClean clears the Dirty bit of, and an
// explicit cache-tier Evict, both at the version (Meta.Version) they
// name, else ErrNotFound, or at 0 on any copy. Durable backends keep no
// State, and their MarkClean and Evict are no-ops.
type Backend interface {
	Read(caller simnet.NodeID, key string) (Blob, Meta, error)
	Write(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID) (uint64, error)
	MarkClean(caller simnet.NodeID, key string, version uint64) error
	Evict(key string, version uint64) error
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

// ChainBackend is a BatchBackend whose Read and Write also run as
// chains of continuations, with no process: ReadThen and WriteThen
// make the bookings their blocking forms make, at the same instants,
// and call done with their result at the instant those would have
// returned. done must not block. The Resilient layer races such a
// chain against its deadline.
type ChainBackend interface {
	BatchBackend
	ReadThen(caller simnet.NodeID, key string, done func(ReadResult))
	WriteThen(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID, done func(WriteResult))
}

// PlacementView is the scheduler-side locality view (§6.5): where
// master copies live, without network charges. Engines without
// placement (durable passthrough) simply don't implement it.
type PlacementView interface {
	MasterOf(key string) (simnet.NodeID, bool)
	// Locate appends each key's location to dst and returns the
	// extended slice.
	Locate(dst []Location, keys []string) []Location
}

// MemoryView is the elasticity-control view the cache agents (§6.4)
// need: per-node usage against the grant, object census and the two
// reclamation verbs, at the census version (0: any copy). The grant is
// the node's (simnet.Node), so the view has no verb to set it.
type MemoryView interface {
	Usage(node simnet.NodeID) (used, limit int64)
	// Objects appends node's census to dst and returns the extended
	// slice.
	Objects(dst []ObjectInfo, node simnet.NodeID) []ObjectInfo
	Evict(key string, version uint64) error
	MigrateToBackup(key string, version uint64) error
}
