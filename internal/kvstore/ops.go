package kvstore

import (
	"maps"

	"ofc/internal/simnet"
)

// Write stores (or overwrites) key with blob. The master copy lands on
// preferred when that node has a live server with room (OFC routes
// writes to the invoking worker for locality, §6.5). The write is
// durable once all backups have buffered it, matching RAMCloud's
// commit point. Returns the new version. Past the coordinator round it
// is a one-item batch: writeGroup does the server side. The store keeps
// tags as given, not a copy (see Meta.Tags), so one map may serve any
// number of writes.
func (c *Cluster) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	sp := c.tracer.Begin(0, 0, "kv.write", caller)
	sp.SetNum("bytes", blob.Size)
	var out [1]WriteResult
	if blob.Size > maxObjectSize {
		out[0].Err = ErrTooLarge
	} else if p, ok, err := c.lookup(caller, key); err != nil {
		out[0].Err = err
	} else {
		ps, speculative := [1]placement{p}, [1]bool{!ok}
		if !ok {
			ps[0], out[0].Err = c.place(key, blob.Size, preferred)
		}
		if out[0].Err == nil {
			items, idxs := [1]WriteItem{{Key: key, Blob: blob, Tags: tags}}, [1]int{0}
			c.writeGroup(caller, ps[0].master, items[:], ps[:], speculative[:], idxs[:], out[:])
		}
	}
	if out[0].Err != nil {
		sp.SetNum("err", 1)
	}
	c.tracer.End(&sp)
	return out[0].Version, out[0].Err
}

// Read fetches key's payload from its master, updating the OFC access
// statistics. Past the coordinator round it is a one-key batch:
// readGroup does the server side.
func (c *Cluster) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	sp := c.tracer.Begin(0, 0, "kv.read", caller)
	var out [1]ReadResult
	if p, ok, err := c.lookup(caller, key); err != nil {
		out[0].Err = err
	} else if !ok {
		out[0].Err = ErrNotFound
	} else {
		keys, idxs := [1]string{key}, [1]int{0}
		c.readGroup(caller, p.master, keys[:], idxs[:], out[:])
	}
	r := out[0]
	if r.Err != nil {
		sp.SetNum("err", 1)
		c.tracer.End(&sp)
		return Blob{}, Meta{}, r.Err
	}
	sp.SetNum("bytes", r.Blob.Size)
	c.tracer.End(&sp)
	return r.Blob, r.Meta, nil
}

// SetTag updates one metadata tag on the master copy and its
// same-version replicas, each of which gets a modified copy of its tags
// (see Meta.Tags).
func (c *Cluster) SetTag(caller simnet.NodeID, key, tag, value string) error {
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return lerr
	}
	if !ok {
		return ErrNotFound
	}
	s := c.Server(p.master)
	if s == nil {
		return ErrNoSuchServer
	}
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, p.master, controlMsgSize); err != nil {
		return err
	}
	s.mu.Lock()
	o, found := s.log.get(key)
	if !found || s.node.Down() {
		s.mu.Unlock()
		return ErrNotFound
	}
	o.meta.Tags = withTag(o.meta.Tags, tag, value)
	ver := o.meta.Version
	s.mu.Unlock()
	// Propagate the tag to backup replicas of the same version so a
	// post-recovery master sees current flags (a persisted object must
	// not come back tagged dirty). The master piggybacks these tiny
	// updates on its replication stream; we fold the cost into the ack.
	for _, b := range p.backups {
		bs := c.Server(b)
		if bs == nil {
			continue
		}
		bs.mu.Lock()
		for _, m := range []map[string]replica{bs.backups, bs.disk} {
			if rep, ok := m[key]; ok && rep.meta.Version == ver {
				rep.meta.Tags = withTag(rep.meta.Tags, tag, value)
				m[key] = rep
			}
		}
		bs.mu.Unlock()
	}
	if err := c.net.TryTransfer(p.master, caller, controlMsgSize); err != nil {
		return err
	}
	return nil
}

// withTag returns a copy of tags with tag set to value.
func withTag(tags map[string]string, tag, value string) map[string]string {
	out := maps.Clone(tags)
	if out == nil {
		out = make(map[string]string, 1)
	}
	out[tag] = value
	return out
}

// dropLocal erases key's copies without network charges (the master
// fans out tiny control messages to backups; we fold that cost into
// the caller's ack path).
func (c *Cluster) dropLocal(p placement, key string) {
	if s := c.Server(p.master); s != nil {
		s.mu.Lock()
		if _, freed := s.log.delete(key); freed {
			s.evictions++
		}
		s.mu.Unlock()
	}
	for _, b := range p.backups {
		if bs := c.Server(b); bs != nil {
			bs.mu.Lock()
			delete(bs.backups, key)
			delete(bs.disk, key)
			bs.mu.Unlock()
		}
	}
}

// Evict removes key entirely (used for clean objects whose canonical
// copy lives in the RSDS). It is a local decision of the cacheAgent;
// only coordinator bookkeeping is charged.
func (c *Cluster) Evict(key string) error {
	p, ok := c.placeDelete(key)
	if !ok {
		return ErrNotFound
	}
	c.dropLocal(p, key)
	return nil
}
