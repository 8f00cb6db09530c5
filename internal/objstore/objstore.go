// Package objstore implements the remote shared data store (RSDS) of
// the paper: an OpenStack-Swift-like persistent object store with the
// three small extensions OFC needs (§3, §6.2):
//
//   - read/write webhooks ("the possibility to register handlers, to
//     be triggered upon the invocation of certain operations");
//   - shadow objects: empty-payload placeholders carrying a pair of
//     version numbers (latest version vs. version whose payload the
//     RSDS actually holds), used for write-back consistency;
//   - feature sidecars: descriptive features extracted from an object
//     at creation time, stored alongside it, so that the ML Predictor
//     does not extract features on the invocation critical path
//     (§5.1.2).
//
// Latency profiles model Swift on the paper's testbed and AWS S3 for
// the motivation experiment (Figure 3).
package objstore

import (
	"errors"
	"sort"
	"strings"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/simnet"
)

// Blob aliases the kvstore payload type: both stores move the same
// objects around.
type Blob = kvstore.Blob

// Profile is a latency/bandwidth model for the store.
type Profile struct {
	Name      string
	ReadBase  time.Duration // per-GET overhead
	WriteBase time.Duration // per-PUT overhead (replication, container update, fsync)
	ShadowPut time.Duration // empty-payload placeholder PUT (OFC's Swift patch)
	ReadBW    float64       // payload bytes/s on the read path
	WriteBW   float64       // payload bytes/s on the write path
}

// ReadTime is the store-side time of ops GETs that move bytes payload
// bytes in total: the per-GET overhead plus the payload at the read
// bandwidth. It is the one formula for an RSDS read, shared by the
// store's own Get and by every estimate of an uncached Extract.
func (p Profile) ReadTime(ops, bytes int64) time.Duration {
	return time.Duration(ops)*p.ReadBase + payloadTime(bytes, p.ReadBW)
}

// WriteTime is ReadTime for PUTs: the per-PUT overhead plus the
// payload at the write bandwidth.
func (p Profile) WriteTime(ops, bytes int64) time.Duration {
	return time.Duration(ops)*p.WriteBase + payloadTime(bytes, p.WriteBW)
}

// payloadTime is the time to move bytes at bw bytes/s.
func payloadTime(bytes int64, bw float64) time.Duration {
	if bytes <= 0 || bw <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// SwiftProfile models the paper's on-testbed Swift deployment,
// calibrated so that wand_edge(16 kB) sees ≈40 ms Extract and ≈115 ms
// Load, and the shadow PUT costs the measured ≈11 ms (§7.2.1).
func SwiftProfile() Profile {
	return Profile{
		Name:      "swift",
		ReadBase:  40 * time.Millisecond,
		WriteBase: 115 * time.Millisecond,
		ShadowPut: 11 * time.Millisecond,
		ReadBW:    120e6,
		WriteBW:   60e6,
	}
}

// S3Profile models AWS S3 from EC2 in-region (Figure 3's motivation
// runs): higher first-byte latency than LAN Swift on reads.
func S3Profile() Profile {
	return Profile{
		Name:      "s3",
		ReadBase:  45 * time.Millisecond,
		WriteBase: 60 * time.Millisecond,
		ShadowPut: 12 * time.Millisecond,
		ReadBW:    90e6,
		WriteBW:   70e6,
	}
}

// Meta is per-object RSDS metadata.
type Meta struct {
	Size int64
	// LatestVersion is the newest version of the object anywhere in
	// the system; PersistedVersion is the newest version whose payload
	// this store holds. A gap means a shadow object (write-back
	// pending in the cache).
	LatestVersion    uint64
	PersistedVersion uint64
	Modified         simnetTime
	UserMeta         map[string]string
	Features         map[string]float64 // extracted sidecar (§5.1.2)
}

type simnetTime = time.Duration

// IsShadow reports whether the store currently lacks the latest
// payload.
func (m Meta) IsShadow() bool { return m.LatestVersion > m.PersistedVersion }

// Hook observes or intercepts external accesses. ReadHooks run before
// a Get returns; the paper's webhook blocks the read until the latest
// payload has been persisted.
type (
	// ReadHook runs before an external Get; it receives the key and
	// current metadata and may block (e.g., boosting a persistor).
	ReadHook func(key string, m Meta)
	// WriteHook runs before an external Put/Delete overwrites state;
	// OFC uses it to invalidate the cached copy synchronously.
	WriteHook func(key string)
)

// Errors.
var (
	ErrNotFound = errors.New("objstore: object not found")
	ErrStale    = errors.New("objstore: persist of outdated version")
)

type entry struct {
	blob Blob
	meta Meta
}

// Store is the RSDS service, hosted on one storage node.
type Store struct {
	net     *simnet.Network
	node    simnet.NodeID
	profile Profile

	objects map[string]*entry

	readHooks    []ReadHook
	writeHooks   []WriteHook
	createdHooks []CreatedHook

	gets, puts, shadows     int64
	bytesRead, bytesWritten int64
}

// New creates a store on node with the given latency profile.
func New(net *simnet.Network, node simnet.NodeID, profile Profile) *Store {
	return &Store{net: net, node: node, profile: profile, objects: make(map[string]*entry)}
}

// Profile returns the latency profile.
func (s *Store) Profile() Profile { return s.profile }

// OnRead registers a read webhook.
func (s *Store) OnRead(h ReadHook) {
	s.readHooks = append(s.readHooks, h)
}

// OnWrite registers a write webhook.
func (s *Store) OnWrite(h WriteHook) {
	s.writeHooks = append(s.writeHooks, h)
}

// CreatedHook runs after an external Put commits — the storage-trigger
// mechanism FaaS platforms hang "invoke on object creation" rules on
// (§2.1, §5.1.2).
type CreatedHook func(key string, size int64)

// OnCreated registers a post-create trigger hook.
func (s *Store) OnCreated(h CreatedHook) {
	s.createdHooks = append(s.createdHooks, h)
}

// Put stores a full object (payload + metadata), assigning the next
// version. It is the plain, transparent write path; external is true
// for accesses that did not come through the FaaS/cache layer, which
// triggers write webhooks.
func (s *Store) Put(caller simnet.NodeID, key string, blob Blob, userMeta map[string]string, external bool) uint64 {
	if external {
		for _, h := range s.writeHooks {
			h(key)
		}
	}
	s.net.Transfer(caller, s.node, blob.Size+256)
	s.net.Env().Sleep(s.profile.WriteTime(1, blob.Size))
	e := s.objects[key]
	if e == nil {
		e = &entry{}
		s.objects[key] = e
	}
	e.blob = blob
	e.meta.Size = blob.Size
	e.meta.LatestVersion++
	e.meta.PersistedVersion = e.meta.LatestVersion
	e.meta.Modified = s.net.Env().Now()
	if userMeta != nil {
		e.meta.UserMeta = userMeta
	}
	ver := e.meta.LatestVersion
	s.net.Transfer(s.node, caller, 256)
	s.puts++
	s.bytesWritten += blob.Size
	if external {
		for _, h := range s.createdHooks {
			h(key, blob.Size)
		}
	}
	return ver
}

// Get fetches an object. external triggers read webhooks (OFC's
// consistency barrier for non-FaaS clients).
func (s *Store) Get(caller simnet.NodeID, key string, external bool) (Blob, Meta, error) {
	e := s.objects[key]
	if e == nil {
		return Blob{}, Meta{}, ErrNotFound
	}
	if external {
		m := e.meta
		for _, h := range s.readHooks {
			h(key, m)
		}
	}
	s.net.Transfer(caller, s.node, 256)
	e = s.objects[key]
	if e == nil {
		return Blob{}, Meta{}, ErrNotFound
	}
	blob, meta := e.blob, e.meta
	s.net.Env().Sleep(s.profile.ReadTime(1, blob.Size))
	s.net.Transfer(s.node, caller, blob.Size+256)
	s.gets++
	s.bytesRead += blob.Size
	return blob, meta, nil
}

// PutShadow records that a new version of key exists (in the cache)
// whose payload the store does not hold yet. It is the synchronous,
// cheap part of OFC's write path (§6.2, ≈11 ms) and returns the new
// latest version.
func (s *Store) PutShadow(caller simnet.NodeID, key string, size int64) uint64 {
	s.net.Transfer(caller, s.node, 256)
	s.net.Env().Sleep(s.profile.ShadowPut)
	e := s.objects[key]
	if e == nil {
		e = &entry{}
		s.objects[key] = e
	}
	e.meta.LatestVersion++
	e.meta.Size = size
	e.meta.Modified = s.net.Env().Now()
	ver := e.meta.LatestVersion
	s.net.Transfer(s.node, caller, 256)
	s.shadows++
	return ver
}

// PersistPayload completes a shadow object: the persistor function
// pushes the payload for the given version. Out-of-order persists of
// stale versions are rejected, which is how version numbers "enforce
// that successive updates are propagated in the correct order" (§6.2).
func (s *Store) PersistPayload(caller simnet.NodeID, key string, blob Blob, version uint64) error {
	s.net.Transfer(caller, s.node, blob.Size+256)
	s.net.Env().Sleep(s.profile.WriteTime(1, blob.Size))
	e := s.objects[key]
	if e == nil {
		return ErrNotFound
	}
	if version < e.meta.PersistedVersion || version > e.meta.LatestVersion {
		return ErrStale
	}
	e.blob = blob
	e.meta.PersistedVersion = version
	e.meta.Size = blob.Size
	e.meta.Modified = s.net.Env().Now()
	s.net.Transfer(s.node, caller, 256)
	s.puts++
	s.bytesWritten += blob.Size
	return nil
}

// SetFeatures attaches the extracted feature sidecar to an object
// (background task at object creation, §5.1.2). No latency is charged:
// it runs off the critical path inside the store.
func (s *Store) SetFeatures(key string, features map[string]float64) error {
	e := s.objects[key]
	if e == nil {
		return ErrNotFound
	}
	e.meta.Features = features
	return nil
}

// MetaOf returns the metadata of key without charging latency (local
// inspection for tests and experiment harnesses).
func (s *Store) MetaOf(key string) (Meta, bool) {
	if e := s.objects[key]; e != nil {
		return e.meta, true
	}
	return Meta{}, false
}

// List returns the keys with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Stats reports operation counters.
func (s *Store) Stats() (gets, puts, shadows, bytesRead, bytesWritten int64) {
	return s.gets, s.puts, s.shadows, s.bytesRead, s.bytesWritten
}
