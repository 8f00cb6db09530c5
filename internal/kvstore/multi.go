package kvstore

// The read and write protocols, each implemented once, per master:
// readGroup serves one master's share of a read, and writeGroup lands
// one master's share of a write and replicates it (replicateShare per
// backup). Read and Write are one-key batches served inline in the
// caller's process. ReadMulti and WriteMulti resolve every placement
// in one coordinator round-trip, group the keys by master, and serve
// the groups in parallel: one control round-trip and one bulk transfer
// per involved server instead of one per key. The chunking middleware's
// stripes go through the batch paths.

import (
	"slices"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// ReadResult is the outcome of one key of a ReadMulti.
type ReadResult struct {
	Blob Blob
	Meta Meta
	Err  error
}

// WriteItem is one object of a WriteMulti batch. Its Tags are kept as
// given, as Write keeps its tags.
type WriteItem struct {
	Key  string
	Blob Blob
	Tags map[string]string
}

// WriteResult is the outcome of one item of a WriteMulti.
type WriteResult struct {
	Version uint64
	Err     error
}

// idxGroup is one master's share of a batch: the batch indices it owns.
// Batches touch a handful of servers (six nodes in the paper's
// testbed), so grouping via a linear-scanned slice avoids the map plus
// side order-slice the old code allocated on every multi-op.
type idxGroup struct {
	node simnet.NodeID
	idxs []int
}

// groupAppend files batch index i under node, preserving first-seen
// node order (which is what keeps multi-op fan-out deterministic).
func groupAppend(groups []idxGroup, node simnet.NodeID, i int) []idxGroup {
	for g := range groups {
		if groups[g].node == node {
			groups[g].idxs = append(groups[g].idxs, i)
			return groups
		}
	}
	return append(groups, idxGroup{node: node, idxs: []int{i}})
}

// serveGroups runs serve on every master's share of a batch, each in
// its own process, and waits for all of them.
func (c *Cluster) serveGroups(groups []idxGroup, serve func(g idxGroup)) {
	env := c.env()
	wg := sim.NewWaitGroup(env)
	for _, g := range groups {
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			serve(g)
		})
	}
	wg.Wait()
}

// ReadMulti fetches a batch of keys, grouping them per master server:
// one coordinator lookup for the whole batch, then one request and one
// (bulk) response exchange per involved server. Per-key failures are
// reported individually in the result slice.
func (c *Cluster) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	sp := c.tracer.Begin(0, 0, "kv.readmulti", caller)
	sp.SetNum("keys", int64(len(keys)))
	out := make([]ReadResult, len(keys))
	if len(keys) > 0 {
		ps, oks, lerr := c.lookupMulti(caller, keys)
		var groups []idxGroup
		for i := range keys {
			switch {
			case lerr != nil:
				out[i].Err = lerr
			case !oks[i]:
				out[i].Err = ErrNotFound
			default:
				groups = groupAppend(groups, ps[i].master, i)
			}
		}
		c.serveGroups(groups, func(g idxGroup) { c.readGroup(caller, g.node, keys, g.idxs, out) })
	}
	var errs int64
	for i := range out {
		if out[i].Err != nil {
			errs++
		}
	}
	if errs > 0 {
		sp.SetNum("err", errs)
	}
	c.tracer.End(&sp)
	return out
}

// readGroup serves one master's share of a read: idxs index keys and
// out. One request goes to the master and one bulk response carries
// back every payload it found; when it found none, nothing is shipped.
func (c *Cluster) readGroup(caller, master simnet.NodeID, keys []string, idxs []int, out []ReadResult) {
	fail := func(err error) {
		for _, i := range idxs {
			out[i].Err = err
		}
	}
	s := c.Server(master)
	if s == nil {
		fail(ErrNoSuchServer)
		return
	}
	env := c.env()
	// One batched request to the master.
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, master, c.cfg.ControlMsgSize); err != nil {
		fail(err)
		return
	}
	env.Sleep(time.Duration(len(idxs)) * c.cfg.ServeOverhead)
	if caller != master {
		// The remote-hit software penalty is paid once per batch, not
		// once per key — the main latency win of batching.
		env.Sleep(c.cfg.CrossNodeOverhead)
	}
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		fail(ErrCrashed)
		return
	}
	var payload int64
	found := 0
	now := env.Now()
	for _, i := range idxs {
		o, ok := s.log.get(keys[i])
		if !ok {
			out[i].Err = ErrNotFound
			continue
		}
		o.meta.NAccess++
		o.meta.LastAccess = now
		out[i].Blob, out[i].Meta = o.blob, o.meta
		payload += o.blob.Size
		found++
		s.reads++
	}
	s.mu.Unlock()
	if found == 0 {
		return
	}
	// One bulk response carrying every found payload.
	if err := c.net.TryTransfer(master, caller, payload+c.cfg.ControlMsgSize); err != nil {
		fail(err)
	}
}

// WriteMulti stores a batch of objects, grouping them by target master:
// one coordinator lookup/placement round for the whole batch, then one
// bulk payload transfer and one ack per involved master, with replica
// payloads likewise grouped per backup server. Per-item failures
// (ErrNoSpace, ErrTooLarge) are reported individually.
func (c *Cluster) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	sp := c.tracer.Begin(0, 0, "kv.writemulti", caller)
	sp.SetNum("keys", int64(len(items)))
	out := make([]WriteResult, len(items))
	if len(items) > 0 {
		keys := make([]string, len(items))
		for i, it := range items {
			keys[i] = it.Key
		}
		ps, oks, lerr := c.lookupMulti(caller, keys)
		speculative := make([]bool, len(items))
		var groups []idxGroup
		for i, it := range items {
			switch {
			case lerr != nil:
				out[i].Err = lerr
			case it.Blob.Size > c.cfg.MaxObjectSize:
				out[i].Err = ErrTooLarge
			case !oks[i]:
				// A new key: the placement decision rides on the same
				// coordinator round, as in Write.
				ps[i], out[i].Err = c.place(it.Key, it.Blob.Size, preferred)
				speculative[i] = out[i].Err == nil
			}
			if out[i].Err == nil {
				groups = groupAppend(groups, ps[i].master, i)
			}
		}
		c.serveGroups(groups, func(g idxGroup) { c.writeGroup(caller, g.node, items, ps, speculative, g.idxs, out) })
	}
	var errs int64
	for i := range out {
		if out[i].Err != nil {
			errs++
		}
	}
	if errs > 0 {
		sp.SetNum("err", errs)
	}
	c.tracer.End(&sp)
	return out
}

// writeGroup lands one master's share of a write (idxs index items, ps,
// speculative and out) and replicates what the master accepted, one
// replicateShare per backup server. Only a write that never reached the
// master's log (its payload transfer failed, or it did not fit) undoes
// the placement this operation made (speculative): an object the master
// logged keeps its placement, or Evict and Delete could not reach its
// bytes. An accepted item reports the first of its backups to fail, in
// placement order, else the ack's failure.
func (c *Cluster) writeGroup(caller, master simnet.NodeID, items []WriteItem, ps []placement, speculative []bool, idxs []int, out []WriteResult) {
	// fail reports err for the whole share; undo also drops the
	// placements this operation made.
	fail := func(err error, undo bool) {
		for _, i := range idxs {
			out[i].Err = err
			if undo && speculative[i] {
				c.placeDelete(items[i].Key)
			}
		}
	}
	s := c.Server(master)
	if s == nil {
		fail(ErrNoSuchServer, false)
		return
	}
	env := c.env()
	var total int64
	for _, i := range idxs {
		total += items[i].Blob.Size
	}
	// One bulk payload shipment to the master.
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, master, total+c.cfg.ControlMsgSize); err != nil {
		fail(err, true)
		return
	}
	env.Sleep(time.Duration(len(idxs))*c.cfg.ServeOverhead + c.memCopyTime(total))

	// Master-side processing.
	acc := make([]acceptedItem, 0, len(idxs))
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		fail(ErrCrashed, false)
		return
	}
	now := env.Now()
	for _, i := range idxs {
		it := items[i]
		old, existed := s.log.get(it.Key)
		delta := it.Blob.Size
		if existed {
			delta -= old.meta.Size
		}
		if s.log.live+delta > s.limit {
			out[i].Err = ErrNoSpace
			if speculative[i] { // undo speculative placement of a brand-new object
				c.placeDelete(it.Key)
			}
			continue
		}
		meta := Meta{
			Version: c.nextVer.Add(1), Size: it.Blob.Size, Created: now,
			LastAccess: now, Tags: it.Tags,
		}
		if existed {
			meta.Created, meta.NAccess = old.meta.Created, old.meta.NAccess
		}
		s.log.put(it.Key, &object{blob: it.Blob, meta: meta})
		s.writes++
		acc = append(acc, acceptedItem{idx: i, key: it.Key, blob: it.Blob, meta: meta,
			backups: ps[i].backups, resized: existed && !speculative[i]})
	}
	// Log-structured memory: if dead entries push the allocated bytes
	// past the budget, the cleaner compacts before the write returns
	// (write-path backpressure, as in RAMCloud). A share the master
	// rejected whole wrote nothing, so it cleans nothing.
	var cleanedBytes int64
	if len(acc) > 0 && s.log.alloc > s.limit {
		cleanedBytes = s.log.clean(s.limit)
	}
	s.mu.Unlock()
	for _, a := range acc {
		if a.resized {
			// Overwrite of an existing object: refresh the coordinator's
			// size record so byte-weighted locality stays accurate.
			c.placeUpdate(a.key, func(p placement) placement { p.size = a.blob.Size; return p })
		}
	}
	if cleanedBytes > 0 {
		env.Sleep(c.memCopyTime(cleanedBytes))
	}
	if len(acc) == 0 {
		return
	}

	// Replicate: one share per backup node, in first-seen order, so each
	// backup sees one bulk transfer and one ack for its whole share.
	shares := make([]repShare, 0, c.cfg.Replication)
	for _, a := range acc {
		for _, b := range a.backups {
			if shareOf(shares, b) < 0 {
				shares = append(shares, repShare{node: b})
			}
		}
	}
	wg := sim.NewWaitGroup(env)
	logged := acc // never reassigned, so the closures copy it instead of moving acc to the heap
	for k := range shares {
		sh := &shares[k]
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			sh.err = c.replicateShare(master, sh.node, logged)
		})
	}
	wg.Wait()

	// Ack to the caller (one control message for the group).
	ackErr := c.net.TryTransfer(master, caller, c.cfg.ControlMsgSize)
	for _, a := range acc {
		err := ackErr
		for _, b := range a.backups {
			if e := shares[shareOf(shares, b)].err; e != nil {
				err = e
				break
			}
		}
		if err != nil {
			out[a.idx].Err = err
		} else {
			out[a.idx].Version = a.meta.Version
		}
	}
}

// acceptedItem is one object a master logged: what its backups buffer,
// and where its outcome goes (out[idx]). resized marks the overwrite of
// an object the coordinator already placed.
type acceptedItem struct {
	idx     int
	key     string
	blob    Blob
	meta    Meta
	backups []simnet.NodeID
	resized bool
}

// repShare is one backup node's part of a group's replication, and how
// it ended.
type repShare struct {
	node simnet.NodeID
	err  error
}

// shareOf is the index of node's share, or -1.
func shareOf(shares []repShare, node simnet.NodeID) int {
	return slices.IndexFunc(shares, func(r repShare) bool { return r.node == node })
}

// replicateShare buffers backup's share of a group (the accepted items
// it backs): one bulk transfer in, per-object RAM buffering,
// asynchronous disk flushes, one ack back.
func (c *Cluster) replicateShare(master, backup simnet.NodeID, acc []acceptedItem) error {
	bs := c.Server(backup)
	if bs == nil {
		return ErrNoSuchServer
	}
	env := c.env()
	var bytes int64
	for _, a := range acc {
		if slices.Contains(a.backups, backup) {
			bytes += a.blob.Size
		}
	}
	if err := c.net.TryTransfer(master, backup, bytes+c.cfg.ControlMsgSize); err != nil {
		return err
	}
	env.Sleep(c.memCopyTime(bytes)) // buffer in backup RAM
	bs.mu.Lock()
	if bs.crashed {
		bs.mu.Unlock()
		return ErrCrashed
	}
	for _, a := range acc {
		if slices.Contains(a.backups, backup) {
			bs.backups[a.key] = replica{blob: a.blob, meta: a.meta}
		}
	}
	bs.mu.Unlock()
	// Asynchronous disk flush, off the commit path. The buffer copy is
	// retained after the flush (RAMCloud backups keep segments buffered
	// while RAM allows), which is what makes migration-by-promotion
	// fast; only a machine restart drops buffers (see Restart).
	for _, a := range acc {
		if !slices.Contains(a.backups, backup) {
			continue
		}
		key, size, version := a.key, a.blob.Size, a.meta.Version
		env.Go(func() {
			bs.node.DiskWrite(size)
			bs.mu.Lock()
			if cur, ok := bs.backups[key]; ok && cur.meta.Version == version {
				bs.disk[key] = cur
			}
			bs.mu.Unlock()
		})
	}
	return c.net.TryTransfer(backup, master, c.cfg.ControlMsgSize)
}
