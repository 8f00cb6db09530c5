// Package imoc implements the in-memory object cache baseline of the
// paper's comparisons (§2.2.3, §7.2): a Redis/ElastiCache-like
// centralized RAM store that tenants would have to provision and
// manage themselves. OWK-Redis in Figure 7 stores *all* data here.
package imoc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/simnet"
)

// Blob aliases the shared payload type.
type Blob = kvstore.Blob

// ErrNotFound is returned for missing keys.
var ErrNotFound = errors.New("imoc: key not found")

// Profile is the latency model for the cache service.
type Profile struct {
	Name      string
	OpBase    time.Duration // per-operation service time
	Bandwidth float64       // payload bytes/s through the service
}

// RedisProfile models an in-region ElastiCache Redis: sub-millisecond
// operations, RAM-speed payloads.
func RedisProfile() Profile {
	return Profile{Name: "redis", OpBase: 150 * time.Microsecond, Bandwidth: 2e9}
}

// Cache is the centralized in-memory store.
type Cache struct {
	net     *simnet.Network
	node    simnet.NodeID
	profile Profile

	mu sync.Mutex
	m  map[string]Blob

	// Op counters are lock-free (the simnet/kvstore stats pattern):
	// they sit on every data-plane op, where a dedicated stats mutex
	// is pure contention.
	gets, sets atomic.Int64
}

// New places the cache service on node.
func New(net *simnet.Network, node simnet.NodeID, profile Profile) *Cache {
	return &Cache{net: net, node: node, profile: profile, m: make(map[string]Blob)}
}

func (c *Cache) bwTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / c.profile.Bandwidth * float64(time.Second))
}

// Set stores key.
func (c *Cache) Set(caller simnet.NodeID, key string, blob Blob) {
	c.net.Transfer(caller, c.node, blob.Size+64)
	c.net.Env().Sleep(c.profile.OpBase + c.bwTime(blob.Size))
	c.mu.Lock()
	c.m[key] = blob
	c.mu.Unlock()
	c.net.Transfer(c.node, caller, 64)
	c.sets.Add(1)
}

// Get fetches key.
func (c *Cache) Get(caller simnet.NodeID, key string) (Blob, error) {
	c.net.Transfer(caller, c.node, 64)
	c.net.Env().Sleep(c.profile.OpBase)
	c.mu.Lock()
	blob, ok := c.m[key]
	c.mu.Unlock()
	if !ok {
		c.net.Transfer(c.node, caller, 64)
		return Blob{}, ErrNotFound
	}
	c.net.Env().Sleep(c.bwTime(blob.Size))
	c.net.Transfer(c.node, caller, blob.Size+64)
	c.gets.Add(1)
	return blob, nil
}

// Del removes key.
func (c *Cache) Del(caller simnet.NodeID, key string) {
	c.net.Transfer(caller, c.node, 64)
	c.net.Env().Sleep(c.profile.OpBase)
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
	c.net.Transfer(c.node, caller, 64)
}

// Len reports the number of stored keys.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports operation counters.
func (c *Cache) Stats() (gets, sets int64) {
	return c.gets.Load(), c.sets.Load()
}
