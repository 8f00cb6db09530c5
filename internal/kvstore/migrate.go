package kvstore

import (
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
// to backup. No inter-node transfer of the payload occurs.
func (c *Cluster) MigrateToBackup(key string) error {
	p, id, ok := c.placeOf(key)
	if !ok {
		return ErrNotFound
	}
	// Elect the backup with the most free master memory.
	var dest simnet.NodeID = -1
	var bestFree int64 = -1
	oldMaster := p.master
	ms := c.Server(oldMaster)
	var size int64
	if ms != nil {
		if o, found := ms.log.get(id); found {
			size = o.meta.Size
		}
	}
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

// promote makes dest the master of id's key, sourcing the payload from
// dest's buffered backup replica. When demoteOld is set, the previous
// master keeps a backup copy (so the replication factor is preserved
// without any transfer); otherwise the old master is gone (crash
// recovery). It holds id across its sleeps.
func (c *Cluster) promote(id objID, dest simnet.NodeID, demoteOld bool) error {
	c.keys.hold(id)
	defer c.keys.release(id)
	p, ok := c.places.get(id)
	if !ok {
		return ErrNotFound
	}
	oldMaster := p.master
	ms := c.Server(oldMaster)
	ds := c.Server(dest)
	if ds == nil {
		return ErrNoSuchServer
	}

	// Grab the object state from the old master (meta) and the payload
	// from dest's local replica.
	var obj *object
	var alive bool
	if ms != nil {
		alive = !ms.node.Down()
		if o, found := ms.log.get(id); found {
			cp := *o
			obj = &cp
		}
	}
	rep, buffered := ds.backups.get(id)
	var onDisk bool
	if !buffered {
		rep, onDisk = ds.disk.get(id)
	}
	if !buffered && !onDisk {
		return ErrNotFound
	}
	blob := rep.blob
	if obj == nil {
		// Old master lost the in-memory copy (crash): rebuild from the
		// replica's own metadata, which carries version and State —
		// including the write-back dirty flag — so no acknowledged
		// write loses its identity.
		m := rep.meta
		if m.Size == 0 {
			m.Size = blob.Size
		}
		obj = &object{blob: blob, meta: m}
	}

	// Control RPC old->coordinator->dest, then local rebuild at dest.
	c.net.Transfer(c.coordloc, dest, controlMsgSize)
	if !buffered {
		// The replica was already flushed: reload it from disk first
		// (the slow path RAMCloud's buffered segments usually avoid).
		ds.node.DiskRead(obj.meta.Size)
	}
	c.env().Sleep(c.promotionTime(obj.meta.Size))

	if ds.node.Down() {
		return ErrCrashed
	}
	ds.log.put(id, &object{blob: blob, meta: obj.meta})
	ds.backups.del(id)
	ds.disk.del(id)

	if ms != nil && alive {
		ms.log.delete(id)
		if demoteOld {
			ms.backups.set(id, object{blob: blob, meta: obj.meta})
			// The old master's copy goes to its disk, off the critical
			// path; once written it survives a restart, as a backup's
			// flushed replica does.
			c.flush(ms, id, obj.meta)
		}
	}

	// Update placement: dest becomes master; old master replaces dest
	// in the backup list (if demoted).
	if p := c.places.at(id); p != nil {
		old := p.backups
		p.master, p.backups = dest, backupSet{}
		for _, b := range old.list() {
			if b != dest {
				p.backups.add(b)
			} else if demoteOld && alive {
				p.backups.add(oldMaster)
			}
		}
	}

	c.stats.Promotions++
	return nil
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
	ms := c.Server(p.master)
	ds := c.Server(dest)
	if ms == nil || ds == nil {
		return ErrNoSuchServer
	}
	o, found := ms.log.get(id)
	if !found || ms.node.Down() {
		return ErrNotFound
	}
	cp := *o

	c.keys.hold(id) // across the copy's sleeps
	defer c.keys.release(id)
	c.net.Transfer(p.master, dest, cp.meta.Size+controlMsgSize)
	c.env().Sleep(c.memCopyTime(cp.meta.Size))

	if ds.node.Down() {
		return ErrCrashed
	}
	ds.log.put(id, &object{blob: cp.blob, meta: cp.meta})

	ms.log.delete(id)

	if p := c.places.at(id); p != nil {
		p.master = dest
	}

	c.stats.FullMoves++
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
// of its backups that is up and holds a replica; it reports whether the
// promotion succeeded.
func (c *Cluster) recoverOne(id objID) bool {
	p, ok := c.places.get(id)
	if !ok {
		return false
	}
	for _, b := range p.backups.list() {
		s := c.Server(b)
		if s == nil || s.node.Down() {
			continue
		}
		_, buffered := s.backups.get(id)
		_, onDisk := s.disk.get(id)
		if buffered || onDisk {
			return c.promote(id, b, false) == nil
		}
	}
	return false
}
