package kvstore

import (
	"sort"
	"time"

	"ofc/internal/simnet"
)

// promotionTime is the calibrated cost of rebuilding a master copy
// from a locally buffered backup replica (paper §7.2.1: 0.18 ms for
// 8 MB up to 13.5 ms for 1 GB).
func (c *Cluster) promotionTime(size int64) time.Duration {
	mb := float64(size) / float64(1<<20)
	return c.cfg.PromotionBase + time.Duration(mb*float64(c.cfg.PromotionPerMB))
}

// MigrateToBackup is OFC's optimized migration (§6.4): elect a new
// master among the nodes already holding a backup replica of key, load
// the object there from the local replica, and demote the old master
// to backup. No inter-node transfer of the payload occurs.
func (c *Cluster) MigrateToBackup(key string) error {
	p, ok := c.placeGet(key)
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
		ms.mu.Lock()
		if o, found := ms.log.get(key); found {
			size = o.meta.Size
		}
		ms.mu.Unlock()
	}
	for _, b := range p.backups {
		s := c.Server(b)
		if s == nil {
			continue
		}
		s.mu.Lock()
		if !s.crashed {
			if free := s.limit - s.log.live; free >= size && free > bestFree {
				bestFree, dest = free, b
			}
		}
		s.mu.Unlock()
	}
	if dest < 0 {
		return ErrNotEnoughSrvs
	}
	return c.promote(key, dest, true)
}

// promote makes dest the master of key, sourcing the payload from
// dest's buffered backup replica. When demoteOld is set, the previous
// master keeps a backup copy (so the replication factor is preserved
// without any transfer); otherwise the old master is gone (crash
// recovery).
func (c *Cluster) promote(key string, dest simnet.NodeID, demoteOld bool) error {
	p, ok := c.placeGet(key)
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
		ms.mu.Lock()
		alive = !ms.crashed
		if o, found := ms.log.get(key); found {
			cp := *o
			obj = &cp
		}
		ms.mu.Unlock()
	}
	ds.mu.Lock()
	rep, buffered := ds.backups[key]
	var onDisk bool
	if !buffered {
		rep, onDisk = ds.disk[key]
	}
	ds.mu.Unlock()
	if !buffered && !onDisk {
		return ErrNotFound
	}
	blob := rep.blob
	if obj == nil {
		// Old master lost the in-memory copy (crash): rebuild from the
		// replica's own metadata, which carries version and tags —
		// including the write-back dirty flag — so no acknowledged
		// write loses its identity.
		m := rep.meta
		if m.Size == 0 {
			m.Size = blob.Size
		}
		obj = &object{blob: blob, meta: m}
	}

	// Control RPC old->coordinator->dest, then local rebuild at dest.
	c.net.Transfer(c.coordloc, dest, c.cfg.ControlMsgSize)
	if !buffered {
		// The replica was already flushed: reload it from disk first
		// (the slow path RAMCloud's buffered segments usually avoid).
		ds.node.DiskRead(obj.meta.Size)
	}
	c.env().Sleep(c.promotionTime(obj.meta.Size))

	ds.mu.Lock()
	if ds.crashed {
		ds.mu.Unlock()
		return ErrCrashed
	}
	ds.log.put(key, &object{blob: blob, meta: obj.meta})
	delete(ds.backups, key)
	delete(ds.disk, key)
	ds.mu.Unlock()

	if ms != nil && alive {
		ms.mu.Lock()
		ms.log.delete(key)
		if demoteOld {
			ms.backups[key] = replica{blob: blob, meta: obj.meta}
		}
		ms.mu.Unlock()
		if demoteOld {
			// The old master's copy goes to its disk, off the critical path.
			mnode := ms.node
			sz := obj.meta.Size
			c.env().Go(func() { mnode.DiskWrite(sz) })
		}
	}

	// Update placement: dest becomes master; old master replaces dest
	// in the backup list (if demoted).
	c.placeUpdate(key, func(p placement) placement {
		newBackups := make([]simnet.NodeID, 0, len(p.backups))
		for _, b := range p.backups {
			if b == dest {
				if demoteOld && alive {
					newBackups = append(newBackups, oldMaster)
				}
				continue
			}
			newBackups = append(newBackups, b)
		}
		return placement{master: dest, backups: newBackups, size: p.size}
	})

	c.statsMu.Lock()
	c.promotions++
	c.statsMu.Unlock()
	return nil
}

// MigrateFull is the baseline migration RAMCloud performs natively:
// the payload is copied over the network from the old master to an
// arbitrary destination. Kept for the ablation benchmark comparing it
// against MigrateToBackup.
func (c *Cluster) MigrateFull(key string, dest simnet.NodeID) error {
	p, ok := c.placeGet(key)
	if !ok {
		return ErrNotFound
	}
	ms := c.Server(p.master)
	ds := c.Server(dest)
	if ms == nil || ds == nil {
		return ErrNoSuchServer
	}
	ms.mu.Lock()
	o, found := ms.log.get(key)
	if !found || ms.crashed {
		ms.mu.Unlock()
		return ErrNotFound
	}
	cp := *o
	ms.mu.Unlock()

	c.net.Transfer(p.master, dest, cp.meta.Size+c.cfg.ControlMsgSize)
	c.env().Sleep(c.memCopyTime(cp.meta.Size))

	ds.mu.Lock()
	if ds.crashed {
		ds.mu.Unlock()
		return ErrCrashed
	}
	ds.log.put(key, &object{blob: cp.blob, meta: cp.meta})
	ds.mu.Unlock()

	ms.mu.Lock()
	ms.log.delete(key)
	ms.mu.Unlock()

	c.placeUpdate(key, func(p placement) placement {
		return placement{master: dest, backups: p.backups, size: p.size}
	})

	c.statsMu.Lock()
	c.fullMoves++
	c.statsMu.Unlock()
	return nil
}

// SetCrashDetectTimeout adjusts how long the coordinator takes to
// declare a silent server dead (charged at the head of Recover).
// Chaos experiments widen it to model realistic detection windows.
func (c *Cluster) SetCrashDetectTimeout(d time.Duration) {
	c.mu.Lock()
	c.cfg.CrashDetectTimeout = d
	c.mu.Unlock()
}

// Crash fail-stops the server on node. Masters held there become
// unavailable until RecoverNode promotes their backups.
func (c *Cluster) Crash(node simnet.NodeID) {
	s := c.Server(node)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
}

// Restart models a backup machine rebooting after a fail-stop: RAM
// state (master log and buffered replicas) is gone, disk contents
// survive, and the server rejoins the cluster.
func (c *Cluster) Restart(node simnet.NodeID) {
	s := c.Server(node)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.crashed = false
	s.log = newObjLog(c.cfg.SegmentSize)
	s.backups = make(map[string]replica)
	s.mu.Unlock()
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
	var victims []string
	c.placeMu.Lock()
	for k, p := range c.places {
		if p.master == crashed {
			victims = append(victims, k)
		}
	}
	c.placeMu.Unlock()
	sort.Strings(victims)
	n := 0
	for _, key := range victims {
		p, ok := c.placeGet(key)
		if !ok {
			continue
		}
		var dest simnet.NodeID = -1
		for _, b := range p.backups {
			s := c.Server(b)
			if s == nil {
				continue
			}
			s.mu.Lock()
			_, buffered := s.backups[key]
			_, onDisk := s.disk[key]
			ok := !s.crashed && (buffered || onDisk)
			s.mu.Unlock()
			if ok {
				dest = b
				break
			}
		}
		if dest < 0 {
			continue
		}
		if err := c.promote(key, dest, false); err == nil {
			n++
		}
	}
	dur := c.env().Now() - start
	c.statsMu.Lock()
	c.recovered += int64(n)
	c.recoveries++
	c.recoveryTime += dur
	c.lastRecovery = dur
	c.statsMu.Unlock()
	return n, dur
}
