package kvstore

import (
	"errors"
	"slices"
	"strings"
	"time"

	"ofc/internal/simnet"
)

// promotionTime is the calibrated cost of rebuilding a master copy
// from a locally buffered backup replica (paper §7.2.1: 0.18 ms for
// 8 MB up to 13.5 ms for 1 GB).
func (c *Cluster) promotionTime(size int64) time.Duration {
	mb := float64(size) / float64(1<<20)
	return promotionBase + time.Duration(mb*float64(promotionPerMB))
}

// MigrateToBackup is OFC's optimized migration (§6.4): elect a new
// master among the nodes already holding a backup replica of key, load
// the object there from the local replica, and demote the old master
// to backup. No inter-node transfer of the payload occurs. A master
// copy of another version than a nonzero version stays, and
// MigrateToBackup reports ErrNotFound; one that changes while the
// promotion sleeps stays too, and it reports ErrMoved (see install).
func (c *Cluster) MigrateToBackup(key string, version uint64) error {
	p, id, ok := c.placeOf(key)
	if !ok {
		return ErrNotFound
	}
	var size int64
	o, found := c.Server(p.master).log.get(id) // a placement names only servers' nodes
	if found {
		size = o.meta.Size
	}
	if version != 0 && (!found || o.meta.Version != version) {
		return ErrNotFound
	}
	// Elect the backup with the most free master memory.
	var dest simnet.NodeID = -1
	var bestFree int64 = -1
	for _, b := range p.backups.list() {
		s := c.Server(b)
		if s == nil || s.node.Down() {
			continue
		}
		if free := s.node.Grant() - s.log.live; free >= size && free > bestFree {
			bestFree, dest = free, b
		}
	}
	if dest < 0 {
		return ErrNotEnoughSrvs
	}
	return c.promote(id, dest, true)
}

// promote makes dest the master of id's key from dest's replica, with
// the master's metadata, or the replica's own where the master lost its
// copy: a replica carries version and State, the dirty flag included,
// so no acknowledged write loses its identity. demote keeps the old
// master as a backup; recovery does not. It holds id across its sleeps.
func (c *Cluster) promote(id objID, dest simnet.NodeID, demote bool) error {
	c.keys.hold(id)
	defer c.keys.release(id)
	p, ok := c.places.get(id)
	if !ok {
		return ErrNotFound
	}
	ds := c.Server(dest)
	if ds == nil {
		return ErrNoSuchServer
	}
	rep, buffered := ds.backups.get(id)
	var onDisk bool
	if !buffered {
		rep, onDisk = ds.disk.get(id)
	}
	if !buffered && !onDisk {
		return ErrNotFound
	}
	ms := c.Server(p.master)
	f := fence{master: p.master, version: ms.liveVersion(id)}
	if o, found := ms.log.get(id); found {
		rep.meta = o.meta
	}

	// Control RPC old->coordinator->dest, then local rebuild at dest.
	c.net.Transfer(c.coordloc, dest, controlMsgSize)
	if !buffered {
		// The replica was already flushed: reload it from disk first
		// (the slow path RAMCloud's buffered segments usually avoid).
		ds.node.DiskRead(rep.meta.Size)
	}
	c.env().Sleep(c.promotionTime(rep.meta.Size))
	return c.install(id, dest, rep, f, demote, &c.stats.Promotions)
}

// MigrateFull is the baseline migration RAMCloud performs natively:
// the payload is copied over the network from the old master to an
// arbitrary destination. Kept for the ablation benchmark comparing it
// against MigrateToBackup.
func (c *Cluster) MigrateFull(key string, dest simnet.NodeID) error {
	p, id, ok := c.placeOf(key)
	if !ok {
		return ErrNotFound
	}
	ms, ds := c.Server(p.master), c.Server(dest)
	if ds == nil {
		return ErrNoSuchServer
	}
	o, found := ms.log.get(id)
	if !found || ms.node.Down() {
		return ErrNotFound
	}
	obj := *o
	c.keys.hold(id) // across the copy's sleeps
	defer c.keys.release(id)
	c.net.Transfer(p.master, dest, obj.meta.Size+controlMsgSize)
	c.env().Sleep(c.memCopyTime(obj.meta.Size))
	return c.install(id, dest, obj, fence{master: p.master, version: obj.meta.Version}, false, &c.stats.FullMoves)
}

// fence is what a move read of its key before sleeping: the master the
// placement named and the version of that master's live copy.
type fence struct {
	master  simnet.NodeID
	version uint64
}

// liveVersion is the version of id's master copy on s, or 0 when s
// holds none or is down (recovery rebuilds that copy; a restart drops it).
func (s *Server) liveVersion(id objID) uint64 {
	if o, found := s.log.get(id); found && !s.node.Down() {
		return o.meta.Version
	}
	return 0
}

// install ends a move of id's key once its sleep is over: obj becomes
// the master copy on dest, and moves counts it. It acts only if the key
// is still as the move read it, its placement naming f.master and that
// master's copy at f.version; otherwise a write, an eviction or another
// move landed during the sleep, and it changes nothing and reports
// ErrMoved. The old master, if up, drops its copy, and keeps it as a
// backup replica when demote is set (flushed to its disk off the
// critical path, so it survives a restart as a backup's replica does).
// dest leaves the backup list and drops its replicas; the demoted
// master takes its slot.
func (c *Cluster) install(id objID, dest simnet.NodeID, obj object, f fence, demote bool, moves *int64) error {
	ds, ms := c.Server(dest), c.Server(f.master)
	if ds.node.Down() {
		return ErrCrashed
	}
	p := c.places.at(id)
	if p == nil || p.master != f.master || ms.liveVersion(id) != f.version {
		return ErrMoved
	}
	alive := !ms.node.Down()
	if alive {
		ms.log.delete(id)
		if demote {
			ms.backups.set(id, obj)
			c.flush(ms, id, obj.meta)
		}
	}
	ds.log.put(id, &obj)
	ds.backups.del(id)
	ds.disk.del(id)
	old := p.backups
	p.master, p.backups = dest, backupSet{}
	for _, b := range old.list() {
		if b != dest {
			p.backups.add(b)
		} else if demote && alive {
			p.backups.add(f.master)
		}
	}
	*moves++
	return nil
}

// Crash fail-stops node's machine, and with it the server there: the
// node is down for the fabric and for every layer on it. Masters held
// there become unavailable until RecoverNode promotes their backups.
func (c *Cluster) Crash(node simnet.NodeID) {
	c.net.SetNodeDown(node, true)
}

// Restart models a backup machine rebooting after a fail-stop: the
// node is up again, the server's RAM state (master log and buffered
// replicas) is gone, disk contents survive, and the server rejoins the
// cluster.
func (c *Cluster) Restart(node simnet.NodeID) {
	c.net.SetNodeDown(node, false)
	s := c.Server(node)
	if s == nil {
		return
	}
	s.log.index.clear()
	s.log = newObjLog(segmentSize, c.keys)
	s.backups.clear()
}

// RecoverNode re-masters every object whose master copy was lost on
// the crashed node, RAMCloud-style: each object is rebuilt on a node
// holding a (disk/buffer) replica. Returns the number of objects
// recovered. Detection time is not charged — callers that model the
// coordinator noticing the crash use Recover.
func (c *Cluster) RecoverNode(crashed simnet.NodeID) int {
	n, _ := c.recoverCrashed(crashed, false)
	return n
}

// Recover is the full coordinator-driven recovery of a crashed node:
// it first charges the crash-detection timeout (the coordinator's RPC
// deadline expiring), then replays backups. It returns the number of
// objects re-mastered and the replay duration (detection excluded),
// both also surfaced through Stats.
func (c *Cluster) Recover(crashed simnet.NodeID) (int, time.Duration) {
	return c.recoverCrashed(crashed, true)
}

// recoverCrashed is the shared recovery path. Objects are replayed in
// sorted key order so identical runs recover identically; real
// RAMCloud parallelizes replay across recovery masters, which would
// shorten the window but make the virtual timeline depend on goroutine
// interleaving.
func (c *Cluster) recoverCrashed(crashed simnet.NodeID, withDetect bool) (int, time.Duration) {
	if withDetect && c.cfg.CrashDetectTimeout > 0 {
		c.env().Sleep(c.cfg.CrashDetectTimeout)
	}
	start := c.env().Now()
	// Each victim's id is held until its turn has passed.
	var victims []objID
	c.places.each(func(id objID, p *placement) {
		if p.master == crashed {
			c.keys.hold(id)
			victims = append(victims, id)
		}
	})
	slices.SortFunc(victims, func(a, b objID) int { return strings.Compare(c.keys.name(a), c.keys.name(b)) })
	n := 0
	for _, id := range victims {
		if c.recoverOne(id) {
			n++
		}
		c.keys.release(id)
	}
	dur := c.env().Now() - start
	c.stats.Recovered += int64(n)
	c.stats.Recoveries++
	c.stats.RecoveryTime += dur
	c.stats.LastRecovery = dur
	return n, dur
}

// recoverOne re-masters id's key, if it is still placed, on the first
// of its backups that is up and holds a replica (promote finds none
// elsewhere); it reports whether the promotion succeeded.
func (c *Cluster) recoverOne(id objID) bool {
	p, _ := c.places.get(id)
	for _, b := range p.backups.list() {
		if s := c.Server(b); s != nil && !s.node.Down() {
			if err := c.promote(id, b, false); !errors.Is(err, ErrNotFound) {
				return err == nil
			}
		}
	}
	return false
}
