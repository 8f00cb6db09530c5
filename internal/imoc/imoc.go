// Package imoc implements the in-memory object cache baseline of the
// paper's comparisons (§2.2.3, §7.2): a Redis/ElastiCache-like
// centralized RAM store that tenants would have to provision and
// manage themselves. OWK-Redis in Figure 7 stores *all* data here.
package imoc

import (
	"errors"
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

	m          map[string]Blob
	gets, sets int64
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
	c.m[key] = blob
	c.net.Transfer(c.node, caller, 64)
	c.sets++
}

// Get fetches key.
func (c *Cache) Get(caller simnet.NodeID, key string) (Blob, error) {
	c.net.Transfer(caller, c.node, 64)
	c.net.Env().Sleep(c.profile.OpBase)
	blob, ok := c.m[key]
	if !ok {
		c.net.Transfer(c.node, caller, 64)
		return Blob{}, ErrNotFound
	}
	c.net.Env().Sleep(c.bwTime(blob.Size))
	c.net.Transfer(c.node, caller, blob.Size+64)
	c.gets++
	return blob, nil
}

// Del removes key.
func (c *Cache) Del(caller simnet.NodeID, key string) {
	c.net.Transfer(caller, c.node, 64)
	c.net.Env().Sleep(c.profile.OpBase)
	delete(c.m, key)
	c.net.Transfer(c.node, caller, 64)
}

// Len reports the number of stored keys.
func (c *Cache) Len() int { return len(c.m) }

// Stats reports operation counters.
func (c *Cache) Stats() (gets, sets int64) { return c.gets, c.sets }
