// Package kvstore implements the RAMCloud-like distributed in-memory
// key-value store that OFC uses as its cache substrate (paper §6.1).
//
// Each worker node hosts a storage server with two roles, as in
// RAMCloud: a master keeps the in-memory primary copy of some objects;
// a backup keeps replica copies for other objects (buffered in RAM and
// flushed to disk asynchronously, which is what makes RAMCloud's
// durable writes and OFC's migration-by-promotion fast). A coordinator
// tracks per-object placement.
//
// OFC-specific extensions faithful to the paper:
//   - per-object read-access counter and last-access timestamp (§6.3);
//   - dynamically adjustable per-server memory limits (§6.4);
//   - optimized migration that promotes a backup replica to master
//     without any inter-node payload transfer (§6.4);
//   - object size ceiling raised to 10 MB (§6.1, footnote 2).
package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/trace"
)

// Blob is an object payload, known by its size alone: the store, the
// cache's books and every cost model see an object as a size, a
// version and a State, never as content (macro experiments move
// hundreds of GB of virtual data).
type Blob struct {
	Size int64
}

// Synthetic returns a payload of the given size with no materialized
// bytes.
func Synthetic(size int64) Blob { return Blob{Size: size} }

// Kind classifies a cached object for the caching policy (§6.3).
type Kind uint8

const (
	// KindInput marks objects read as function inputs.
	KindInput Kind = iota
	// KindIntermediate marks outputs of intermediate pipeline stages,
	// discarded from the cache when the pipeline completes and never
	// persisted to the RSDS.
	KindIntermediate
	// KindFinal marks final outputs (single-stage functions or the
	// last stage of a pipeline), written back to the RSDS and then
	// dropped from the cache.
	KindFinal
	// KindChunk marks one stripe of a larger object (store.Chunked);
	// the object's own state lives in the striping layer's manifest.
	KindChunk
)

// State is what the proxy, the Persistor and the cache agent know of a
// cached object (§6.2, §6.3): its kind, whether its payload has yet to
// reach the RSDS, and the shadow version its write-back persists (0
// for a relaxed-mode object, which a plain Put writes back). The zero
// State is a clean input.
type State struct {
	Kind           Kind
	Dirty          bool
	PersistVersion uint64
}

// Meta is the per-object metadata the store maintains.
type Meta struct {
	Version    uint64
	Size       int64
	NAccess    int64    // read count since creation (OFC extension)
	LastAccess sim.Time // virtual time of last read (OFC extension)
	Created    sim.Time
	State      State
}

// Errors returned by cluster operations.
var (
	ErrNotFound      = errors.New("kvstore: object not found")
	ErrNoSpace       = errors.New("kvstore: master memory limit exceeded")
	ErrTooLarge      = errors.New("kvstore: object exceeds maximum size")
	ErrCrashed       = errors.New("kvstore: server crashed")
	ErrNoSuchServer  = errors.New("kvstore: node hosts no storage server")
	ErrNotEnoughSrvs = errors.New("kvstore: not enough live servers for replication")
	// ErrMoved refuses a move or a write whose key was moved, rewritten
	// or dropped since the step read its placement.
	ErrMoved = errors.New("kvstore: key moved since the step read its placement")
)

// The store's timing and sizing constants, calibrated to the paper's
// testbed.
const (
	// replication is the number of backup copies per object.
	replication = 2
	// maxObjectSize is the per-object ceiling (paper: raised to 10 MB).
	maxObjectSize int64 = 10 << 20
	// controlMsgSize approximates the wire size of control RPCs.
	controlMsgSize int64 = 256
	// serveOverhead is the per-request CPU cost at a server.
	serveOverhead = 3 * time.Microsecond
	// crossNodeOverhead is the extra software cost of a read served
	// from a remote master (container networking, proxy hop) — the
	// source of the paper's remote-hit penalty (§7.2.1).
	crossNodeOverhead = 800 * time.Microsecond
	// memBandwidth is the in-memory copy rate (bytes/s) used for
	// buffering replicas and rebuilding promoted objects.
	memBandwidth = 10e9
	// promotionBase and promotionPerMB calibrate the optimized
	// migration (paper §7.2.1: 0.18 ms for 8 MB ... 13.5 ms for 1 GB).
	promotionBase  = 30 * time.Microsecond
	promotionPerMB = 10500 * time.Nanosecond
	// segmentSize is the log-structured memory segment capacity
	// (RAMCloud's 8 MB, doubled to fit the 10 MB object extension).
	segmentSize int64 = 16 << 20
)

// Config carries the store timings a run varies.
type Config struct {
	// CrashDetectTimeout is how long the coordinator takes to declare
	// a silent server dead (RPC timeout plus retries) before starting
	// recovery; charged at the head of Recover. Chaos experiments widen
	// it to model realistic detection windows.
	CrashDetectTimeout time.Duration
}

// DefaultConfig returns the timings calibrated to the paper's testbed.
func DefaultConfig() Config {
	return Config{CrashDetectTimeout: 150 * time.Millisecond}
}

// object is one copy of a key: the master copy in a server's log, or a
// backup copy in a server's RAM buffer or on its disk. A backup carries
// the metadata needed to rebuild a master from it: carrying version and
// state (notably the write-back dirty flag) with every replica is what
// lets crash recovery promote a backup without losing an acknowledged
// write's identity.
type object struct {
	blob Blob
	meta Meta
}

// Server is a per-node storage server (master + backup roles). Two
// facts about it belong to its machine and are read there: whether it
// is up (node.Down) and its master memory budget, the node's cache
// grant (node.Grant).
type Server struct {
	node *simnet.Node

	log     *objLog       // log-structured master storage
	backups table[object] // backup copies still in the RAM buffer
	disk    table[object] // backup copies flushed to disk
}

// Down reports whether the server's machine is fail-stopped.
func (s *Server) Down() bool { return s.node.Down() }

// Usage returns the live master-copy bytes and the current limit.
func (s *Server) Usage() (used, limit int64) {
	return s.log.live, s.node.Grant()
}

// LogStats exposes the log-structured engine's accounting: allocated
// segment bytes, live bytes, cleanings performed and bytes relocated.
func (s *Server) LogStats() (alloc, live, cleanings, moved int64) {
	return s.log.alloc, s.log.live, s.log.cleaned, s.log.moved
}

// ObjectInfo is a snapshot of one master copy, for eviction policies.
type ObjectInfo struct {
	Key  string
	Meta Meta
}

// placement records where an object's copies live and how big the
// master copy is (sizes let locality-aware routers weigh keys by
// bytes without touching the data path).
type placement struct {
	master  simnet.NodeID
	backups backupSet
	size    int64
}

// backupSet is the backup nodes of one object, in placement order.
type backupSet struct {
	nodes [replication]simnet.NodeID
	n     int
}

// list returns the backup nodes.
func (b *backupSet) list() []simnet.NodeID { return b.nodes[:b.n] }

// add appends node.
func (b *backupSet) add(node simnet.NodeID) {
	b.nodes[b.n] = node
	b.n++
}

// Cluster is the whole store: a coordinator plus per-node servers.
type Cluster struct {
	net      *simnet.Network
	cfg      Config
	coordloc simnet.NodeID

	servers []*Server       // by node id; nil where a node has none
	live    []simnet.NodeID // liveServers' buffer
	rr      int             // round-robin cursor for placement
	keys    *keyTable       // the interned keys (keys.go)
	places  table[placement]
	nextVer uint64
	stats   ClusterStats

	// tracer records kv.read/kv.write (and multi) coordinator RPC
	// spans as trace-0 roots; nil = off.
	tracer *trace.Tracer

	// Free lists of the records ops in flight run on: ops, which keep
	// their groups, the waiters of blocking ones (ops.go), replication
	// rounds and disk flushes (multi.go).
	ops     []*op
	waiters []*waiter
	rounds  []*round
	flushes []*flushRec
}

// SetTracer attaches a span recorder to the coordinator RPC surface.
// Call before traffic starts.
func (c *Cluster) SetTracer(tr *trace.Tracer) { c.tracer = tr }

// New creates a cluster whose coordinator runs on coordNode.
func New(net *simnet.Network, coordNode simnet.NodeID, cfg Config) *Cluster {
	keys := newKeyTable()
	return &Cluster{
		net:      net,
		cfg:      cfg,
		coordloc: coordNode,
		keys:     keys,
		places:   table[placement]{keys: keys},
	}
}

// AddServer starts a storage server on node with the given master
// memory budget, which becomes the node's cache grant.
func (c *Cluster) AddServer(node simnet.NodeID, memLimit int64) *Server {
	s := &Server{
		node:    c.net.Node(node),
		log:     newObjLog(segmentSize, c.keys),
		backups: table[object]{keys: c.keys},
		disk:    table[object]{keys: c.keys},
	}
	s.node.SetGrant(memLimit)
	if n := int(node) + 1; n > len(c.servers) {
		c.servers = slices.Grow(c.servers, n-len(c.servers))[:n]
	}
	c.servers[node] = s
	return s
}

// Server returns the server on node, or nil.
func (c *Cluster) Server(node simnet.NodeID) *Server {
	if node < 0 || int(node) >= len(c.servers) {
		return nil
	}
	return c.servers[node]
}

// env is a shorthand.
func (c *Cluster) env() *sim.Env { return c.net.Env() }

// memCopyTime is the RAM-to-RAM handling cost for size bytes.
func (c *Cluster) memCopyTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / memBandwidth * float64(time.Second))
}

// liveServers lists the servers whose node is up, in id order, in a
// buffer the next call reuses.
func (c *Cluster) liveServers() []simnet.NodeID {
	c.live = c.live[:0]
	for id, s := range c.servers {
		if s != nil && !s.node.Down() {
			c.live = append(c.live, simnet.NodeID(id))
		}
	}
	return c.live
}

// place assigns a master and backups for a new object. preferred, when
// valid and live with capacity, becomes master (OFC locality, §6.5).
// When a concurrent writer already placed the key, the existing
// placement wins and is returned.
func (c *Cluster) place(id objID, size int64, preferred simnet.NodeID) (placement, error) {
	live := c.liveServers()
	if len(live) < 1+replication {
		return placement{}, ErrNotEnoughSrvs
	}
	master := simnet.NodeID(-1)
	if s := c.Server(preferred); s != nil {
		if !s.node.Down() && s.log.live+size <= s.node.Grant() {
			master = preferred
		}
	}
	if master < 0 {
		// Pick the live server with the most free master memory.
		var bestFree int64 = -1
		for _, id := range live {
			s := c.servers[id]
			free := s.node.Grant() - s.log.live
			if free > bestFree {
				bestFree, master = free, id
			}
		}
	}
	if master < 0 {
		// Every server is past its limit (grants shrink under live
		// data): there is no master to place on, and a placement
		// without one would be found by every later Locate.
		return placement{}, ErrNoSpace
	}
	p := placement{master: master, size: size}
	for i := 0; p.backups.n < replication && i < 2*len(live); i++ {
		node := live[(c.rr+i)%len(live)]
		if node != master && !slices.Contains(p.backups.list(), node) {
			p.backups.add(node)
		}
	}
	c.rr++
	if p.backups.n < replication {
		return placement{}, ErrNotEnoughSrvs
	}
	if cur, ok := c.places.get(id); ok {
		return cur, nil
	}
	c.places.set(id, p)
	return p, nil
}

// placeOf returns key's placement and id, when the key is placed.
func (c *Cluster) placeOf(key string) (placement, objID, bool) {
	id, ok := c.keys.lookup(key)
	if !ok {
		return placement{}, noID, false
	}
	p, ok := c.places.get(id)
	return p, id, ok
}

// resolve reads key's placement at the coordinator. The id it returns
// is held, for the caller to release: a placed key's, and with intern
// an unplaced key's too, which a write is about to place. It is noID
// for a key left unresolved.
func (c *Cluster) resolve(key string, intern bool) (objID, placement, bool) {
	if intern {
		id := c.keys.acquire(key)
		p, ok := c.places.get(id)
		return id, p, ok
	}
	p, id, ok := c.placeOf(key)
	if !ok {
		return noID, placement{}, false
	}
	c.keys.hold(id)
	return id, p, true
}

// releaseAll drops the references resolve took on ids.
func (c *Cluster) releaseAll(ids []objID) {
	for i, id := range ids {
		if id != noID {
			c.keys.release(id)
			ids[i] = noID
		}
	}
}

// MasterOf returns the node currently mastering key, without charging
// network time (used by schedulers that co-locate with the cache; the
// paper's controller queries the RAMCloud coordinator, whose cost is
// part of the controller's fixed overhead).
func (c *Cluster) MasterOf(key string) (simnet.NodeID, bool) {
	p, _, ok := c.placeOf(key)
	if !ok {
		return 0, false
	}
	return p.master, true
}

// Location describes where one key's master copy lives, for
// byte-weighted locality decisions.
type Location struct {
	Node simnet.NodeID
	Size int64
	OK   bool
}

// Locate appends to dst the master node and object size of each key,
// in order, and returns the extended slice; it charges no network time
// (scheduler-side placement view, like MasterOf). A caller that passes
// a buffer with room allocates nothing.
func (c *Cluster) Locate(dst []Location, keys []string) []Location {
	for _, k := range keys {
		var loc Location
		if p, _, ok := c.placeOf(k); ok {
			loc = Location{Node: p.master, Size: p.size, OK: true}
		}
		dst = append(dst, loc)
	}
	return dst
}

// MaxObjectSize reports the per-object ceiling of this backend.
func (c *Cluster) MaxObjectSize() int64 { return maxObjectSize }

// Usage reports the live master-copy bytes and memory limit of node's
// server; zeros when the node hosts no server.
func (c *Cluster) Usage(node simnet.NodeID) (used, limit int64) {
	s := c.Server(node)
	if s == nil {
		return 0, 0
	}
	return s.Usage()
}

// Objects appends to dst a snapshot of the master copies on node, in
// the order of the keys' interned ids, which says nothing about the
// keys (sorting here would charge every caller): a consumer whose
// result depends on the order sorts. It returns the extended slice.
func (c *Cluster) Objects(dst []ObjectInfo, node simnet.NodeID) []ObjectInfo {
	s := c.Server(node)
	if s == nil {
		return dst
	}
	dst = slices.Grow(dst, s.log.index.len())
	s.log.each(func(id objID, o *object) {
		dst = append(dst, ObjectInfo{Key: c.keys.name(id), Meta: o.meta})
	})
	return dst
}

// SetMemoryLimit sets the master memory budget of node's server: the
// node's cache grant, which the invoker on the node reads too.
// Lowering the limit below current usage does not evict anything by
// itself: OFC's cacheAgent is responsible for freeing space (§6.4).
func (c *Cluster) SetMemoryLimit(node simnet.NodeID, limit int64) error {
	s := c.Server(node)
	if s == nil {
		return ErrNoSuchServer
	}
	s.node.SetGrant(limit)
	return nil
}

// ClusterStats is a snapshot of the cluster-wide counters.
type ClusterStats struct {
	Promotions int64 // optimized migrations performed
	FullMoves  int64 // baseline payload-copy migrations
	Recovered  int64 // objects re-mastered by crash recovery
	Recoveries int64 // crash recoveries completed
	// RecoveryTime is the cumulative virtual time spent replaying
	// backups after crashes; LastRecovery is the most recent run.
	RecoveryTime time.Duration
	LastRecovery time.Duration
	// CoordRPCs counts coordinator placement round-trips and
	// ServerRPCs counts request/response exchanges with masters; the
	// batching benchmark asserts ReadMulti's ≤1-per-server property
	// against them.
	CoordRPCs  int64
	ServerRPCs int64
}

// Stats reports cluster-wide counters.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// TotalUsed sums master-copy bytes across live servers.
func (c *Cluster) TotalUsed() int64 {
	var t int64
	for _, s := range c.servers {
		if s == nil || s.node.Down() {
			continue
		}
		t += s.log.live
	}
	return t
}

func (c *Cluster) String() string {
	servers := 0
	for _, s := range c.servers {
		if s != nil {
			servers++
		}
	}
	return fmt.Sprintf("kvstore.Cluster{servers=%d objects=%d}", servers, c.places.len())
}
