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

// Blob is an object payload. Data may be nil for synthetic payloads
// (macro experiments move hundreds of GB of virtual data); Size is
// authoritative either way.
type Blob struct {
	Size int64
	Data []byte
}

// Bytes returns a payload of the given content; convenience for tests.
func Bytes(b []byte) Blob { return Blob{Size: int64(len(b)), Data: b} }

// Synthetic returns a payload of the given size with no materialized
// bytes.
func Synthetic(size int64) Blob { return Blob{Size: size} }

// Meta is the per-object metadata the store maintains.
type Meta struct {
	Version    uint64
	Size       int64
	NAccess    int64    // read count since creation (OFC extension)
	LastAccess sim.Time // virtual time of last read (OFC extension)
	Created    sim.Time
	// Tags are the OFC object tags (kind, pipeline id, dirty, ...). A tag
	// map is immutable once written: the store keeps the writer's map,
	// SetTag installs a modified copy, and nobody writes to a map handed
	// to a Write or read out of a Meta. So a Meta is a snapshot.
	Tags map[string]string
}

// Errors returned by cluster operations.
var (
	ErrNotFound      = errors.New("kvstore: object not found")
	ErrNoSpace       = errors.New("kvstore: master memory limit exceeded")
	ErrTooLarge      = errors.New("kvstore: object exceeds maximum size")
	ErrCrashed       = errors.New("kvstore: server crashed")
	ErrNoSuchServer  = errors.New("kvstore: node hosts no storage server")
	ErrNotEnoughSrvs = errors.New("kvstore: not enough live servers for replication")
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

// object is a master copy.
type object struct {
	blob Blob
	meta Meta
}

// replica is a backup copy: the payload plus the metadata needed to
// rebuild a master from it. Carrying version and tags (notably the
// write-back dirty flag) with every replica is what lets crash
// recovery promote a backup without losing an acknowledged write's
// identity.
type replica struct {
	blob Blob
	meta Meta
}

// Server is a per-node storage server (master + backup roles). Two
// facts about it belong to its machine and are read there: whether it
// is up (node.Down) and its master memory budget, the node's cache
// grant (node.Grant).
type Server struct {
	node *simnet.Node

	log     *objLog            // log-structured master storage
	backups map[string]replica // backup copies still in the RAM buffer
	disk    map[string]replica // backup copies flushed to disk

	// stats
	reads, writes, evictions int64
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
	backups []simnet.NodeID
	size    int64
}

// Cluster is the whole store: a coordinator plus per-node servers.
type Cluster struct {
	net      *simnet.Network
	cfg      Config
	coordloc simnet.NodeID

	servers map[simnet.NodeID]*Server
	rr      int // round-robin cursor for placement
	places  map[string]placement
	nextVer uint64

	promotions   int64
	fullMoves    int64
	recovered    int64
	recoveries   int64
	recoveryTime time.Duration
	lastRecovery time.Duration
	coordRPCs    int64
	serverRPCs   int64

	// tracer records kv.read/kv.write (and multi) coordinator RPC
	// spans as trace-0 roots; nil = off.
	tracer *trace.Tracer

	// Free lists of replication rounds and disk flushes (multi.go).
	rounds  []*round
	flushes []*flushRec
}

// SetTracer attaches a span recorder to the coordinator RPC surface.
// Call before traffic starts.
func (c *Cluster) SetTracer(tr *trace.Tracer) { c.tracer = tr }

// New creates a cluster whose coordinator runs on coordNode.
func New(net *simnet.Network, coordNode simnet.NodeID, cfg Config) *Cluster {
	return &Cluster{
		net:      net,
		cfg:      cfg,
		coordloc: coordNode,
		servers:  make(map[simnet.NodeID]*Server),
		places:   make(map[string]placement),
	}
}

// AddServer starts a storage server on node with the given master
// memory budget, which becomes the node's cache grant.
func (c *Cluster) AddServer(node simnet.NodeID, memLimit int64) *Server {
	s := &Server{
		node:    c.net.Node(node),
		log:     newObjLog(segmentSize),
		backups: make(map[string]replica),
		disk:    make(map[string]replica),
	}
	s.node.SetGrant(memLimit)
	c.servers[node] = s
	return s
}

// Server returns the server on node, or nil.
func (c *Cluster) Server(node simnet.NodeID) *Server { return c.servers[node] }

// env is a shorthand.
func (c *Cluster) env() *sim.Env { return c.net.Env() }

// memCopyTime is the RAM-to-RAM handling cost for size bytes.
func (c *Cluster) memCopyTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / memBandwidth * float64(time.Second))
}

// liveServers lists the servers whose node is up, in id order.
func (c *Cluster) liveServers() []simnet.NodeID {
	var out []simnet.NodeID
	for id, s := range c.servers {
		if !s.node.Down() {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// place assigns a master and backups for a new object. preferred, when
// valid and live with capacity, becomes master (OFC locality, §6.5).
// When a concurrent writer already placed the key, the existing
// placement wins and is returned.
func (c *Cluster) place(key string, size int64, preferred simnet.NodeID) (placement, error) {
	live := c.liveServers()
	if len(live) < 1+replication {
		return placement{}, ErrNotEnoughSrvs
	}
	master := simnet.NodeID(-1)
	if s := c.servers[preferred]; s != nil {
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
	var backups []simnet.NodeID
	for i := 0; len(backups) < replication && i < 2*len(live); i++ {
		id := live[(c.rr+i)%len(live)]
		if id == master {
			continue
		}
		dup := false
		for _, b := range backups {
			if b == id {
				dup = true
			}
		}
		if !dup {
			backups = append(backups, id)
		}
	}
	c.rr++
	if len(backups) < replication {
		return placement{}, ErrNotEnoughSrvs
	}
	p := placement{master: master, backups: backups, size: size}
	if cur, ok := c.places[key]; ok {
		return cur, nil
	}
	c.places[key] = p
	return p, nil
}

// lookup fetches the placement of key, charging a coordinator RPC from
// caller. The error is non-nil when the coordinator is unreachable.
func (c *Cluster) lookup(caller simnet.NodeID, key string) (placement, bool, error) {
	type res struct {
		p  placement
		ok bool
	}
	c.coordRPCs++
	r, err := simnet.TryCall(c.net, caller, c.coordloc, controlMsgSize, controlMsgSize, func() res {
		p, ok := c.places[key]
		return res{p, ok}
	})
	if err != nil {
		return placement{}, false, err
	}
	return r.p, r.ok, nil
}

// lookupMulti fetches the placements of all keys in one coordinator
// round-trip (a single control RPC regardless of batch size).
func (c *Cluster) lookupMulti(caller simnet.NodeID, keys []string) ([]placement, []bool, error) {
	type res struct {
		ps []placement
		ok []bool
	}
	c.coordRPCs++
	r, err := simnet.TryCall(c.net, caller, c.coordloc, controlMsgSize, controlMsgSize, func() res {
		ps := make([]placement, len(keys))
		ok := make([]bool, len(keys))
		for i, k := range keys {
			ps[i], ok[i] = c.places[k]
		}
		return res{ps, ok}
	})
	if err != nil {
		return nil, nil, err
	}
	return r.ps, r.ok, nil
}

// MasterOf returns the node currently mastering key, without charging
// network time (used by schedulers that co-locate with the cache; the
// paper's controller queries the RAMCloud coordinator, whose cost is
// part of the controller's fixed overhead).
func (c *Cluster) MasterOf(key string) (simnet.NodeID, bool) {
	p, ok := c.places[key]
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

// Locate resolves the master node and object size for each key without
// charging network time (scheduler-side placement view, like MasterOf).
func (c *Cluster) Locate(keys []string) []Location {
	out := make([]Location, len(keys))
	for i, k := range keys {
		if p, ok := c.places[k]; ok {
			out[i] = Location{Node: p.master, Size: p.size, OK: true}
		}
	}
	return out
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

// Objects returns a snapshot of the master copies on node, in no
// particular order (the index is a map, and sorting here would charge
// every caller): a consumer whose result depends on the order sorts.
func (c *Cluster) Objects(node simnet.NodeID) []ObjectInfo {
	s := c.Server(node)
	if s == nil {
		return nil
	}
	out := make([]ObjectInfo, 0, len(s.log.index))
	s.log.each(func(k string, o *object) {
		out = append(out, ObjectInfo{Key: k, Meta: o.meta})
	})
	return out
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
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		Promotions:   c.promotions,
		FullMoves:    c.fullMoves,
		Recovered:    c.recovered,
		Recoveries:   c.recoveries,
		RecoveryTime: c.recoveryTime,
		LastRecovery: c.lastRecovery,
		CoordRPCs:    c.coordRPCs,
		ServerRPCs:   c.serverRPCs,
	}
}

// TotalUsed sums master-copy bytes across live servers.
func (c *Cluster) TotalUsed() int64 {
	var t int64
	for _, s := range c.servers {
		if s.node.Down() {
			continue
		}
		t += s.log.live
	}
	return t
}

func (c *Cluster) String() string {
	return fmt.Sprintf("kvstore.Cluster{servers=%d objects=%d}", len(c.servers), len(c.places))
}
