package kvstore

// The read and write protocols, each implemented once, per master:
// readGroup serves one master's share of a read, and writeGroup lands
// one master's share of a write and replicates it in one round: per
// backup, a chain of continuations (payload hop, RAM buffering, install,
// ack hop, disk flush bookings) with no process, the writer parked once
// on the round's countdown. Read and Write are one-key batches served
// inline in the caller's process, and a healthy Write spawns nothing.
// ReadMulti and WriteMulti resolve every placement in one coordinator
// round-trip, group the keys by master, and serve the groups in
// parallel, one process per master: one control round-trip and one
// bulk transfer per involved server instead of one per key. The
// chunking middleware's stripes go through the batch paths.

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
	c.serverRPCs++
	if err := c.net.TryTransfer(caller, master, controlMsgSize); err != nil {
		fail(err)
		return
	}
	env.Sleep(time.Duration(len(idxs)) * serveOverhead)
	if caller != master {
		// The remote-hit software penalty is paid once per batch, not
		// once per key — the main latency win of batching.
		env.Sleep(crossNodeOverhead)
	}
	if s.node.Down() {
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
	if found == 0 {
		return
	}
	// One bulk response carrying every found payload.
	if err := c.net.TryTransfer(master, caller, payload+controlMsgSize); err != nil {
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
			case it.Blob.Size > maxObjectSize:
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
// speculative and out) and replicates what the master accepted in one
// round (see round). Only a write that never reached the master's log
// (its payload transfer failed, or it did not fit) undoes the placement
// this operation made (speculative): an object the master logged keeps
// its placement, or Evict could not reach its bytes. An accepted item
// reports the first of its backups to fail, in placement order, else
// the ack's failure.
func (c *Cluster) writeGroup(caller, master simnet.NodeID, items []WriteItem, ps []placement, speculative []bool, idxs []int, out []WriteResult) {
	// fail reports err for the whole share; undo also drops the
	// placements this operation made.
	fail := func(err error, undo bool) {
		for _, i := range idxs {
			out[i].Err = err
			if undo && speculative[i] {
				delete(c.places, items[i].Key)
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
	c.serverRPCs++
	if err := c.net.TryTransfer(caller, master, total+controlMsgSize); err != nil {
		fail(err, true)
		return
	}
	env.Sleep(time.Duration(len(idxs))*serveOverhead + c.memCopyTime(total))

	// Master-side processing.
	r := c.newRound(master)
	defer c.recycleRound(r)
	if s.node.Down() {
		fail(ErrCrashed, false)
		return
	}
	limit := s.node.Grant()
	now := env.Now()
	for _, i := range idxs {
		it := items[i]
		old, existed := s.log.get(it.Key)
		delta := it.Blob.Size
		if existed {
			delta -= old.meta.Size
		}
		if s.log.live+delta > limit {
			out[i].Err = ErrNoSpace
			if speculative[i] { // undo speculative placement of a brand-new object
				delete(c.places, it.Key)
			}
			continue
		}
		c.nextVer++
		meta := Meta{
			Version: c.nextVer, Size: it.Blob.Size, Created: now,
			LastAccess: now, Tags: it.Tags,
		}
		if existed {
			meta.Created, meta.NAccess = old.meta.Created, old.meta.NAccess
		}
		s.log.put(it.Key, &object{blob: it.Blob, meta: meta})
		s.writes++
		r.acc = append(r.acc, acceptedItem{idx: i, key: it.Key, blob: it.Blob, meta: meta,
			backups: ps[i].backups, resized: existed && !speculative[i]})
	}
	// Log-structured memory: if dead entries push the allocated bytes
	// past the budget, the cleaner compacts before the write returns
	// (write-path backpressure, as in RAMCloud). A share the master
	// rejected whole wrote nothing, so it cleans nothing.
	var cleanedBytes int64
	if len(r.acc) > 0 && s.log.alloc > limit {
		cleanedBytes = s.log.clean(limit)
	}
	for _, a := range r.acc {
		if a.resized {
			// Overwrite of an existing object: refresh the coordinator's
			// size record so byte-weighted locality stays accurate.
			if p, ok := c.places[a.key]; ok {
				p.size = a.blob.Size
				c.places[a.key] = p
			}
		}
	}
	if cleanedBytes > 0 {
		env.Sleep(c.memCopyTime(cleanedBytes))
	}
	if len(r.acc) == 0 {
		return
	}

	r.replicate()

	// Ack to the caller (one control message for the group).
	ackErr := c.net.TryTransfer(master, caller, controlMsgSize)
	for i := range r.acc {
		a := &r.acc[i]
		err := ackErr
		for _, b := range a.backups {
			if e := r.shareOf(b).err; e != nil {
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

// round is the replication of one writeGroup: the items the master
// accepted, one share per backup node they name, in first-seen order,
// so that each backup sees one bulk transfer and one ack for its whole
// share, and the countdown the writer parks on. A share is a chain of
// continuations, not a process: its payload hop (simnet.TransferThen),
// the RAM-buffer delay (sim.Env.Then), the crash check and install, the
// ack hop and the disk flush bookings. The writer parks once, on done,
// which the last share to end sets. Rounds are pooled on the Cluster,
// each with its share records and future.
type round struct {
	c       *Cluster
	master  simnet.NodeID
	acc     []acceptedItem
	shares  []*share
	pending int // shares not yet ended
	done    *sim.Future[struct{}]
}

// share is one backup node's part of a round, and how it ended. Its
// steps are method values bound once, when the record is made.
type share struct {
	r     *round
	node  simnet.NodeID
	bs    *Server
	bytes int64
	err   error

	arrived  func(error) // s.payloadArrived
	buffered func()      // s.buffer
	acked    func(error) // s.end
}

// newRound takes a round from the free list, or makes one.
func (c *Cluster) newRound(master simnet.NodeID) *round {
	var r *round
	if n := len(c.rounds); n > 0 {
		r = c.rounds[n-1]
		c.rounds = c.rounds[:n-1]
	} else {
		r = &round{c: c, done: sim.NewFuture[struct{}](c.env())}
	}
	r.master = master
	return r
}

// recycleRound returns a round whose shares have all ended to the free
// list, dropping its references to the payloads it replicated.
func (c *Cluster) recycleRound(r *round) {
	clear(r.acc)
	r.acc = r.acc[:0]
	r.shares = r.shares[:0]
	r.done.Reset()
	c.rounds = append(c.rounds, r)
}

// shareOf returns node's share, adding it when the round has none.
func (r *round) shareOf(node simnet.NodeID) *share {
	for _, s := range r.shares {
		if s.node == node {
			return s
		}
	}
	n := len(r.shares)
	if n < cap(r.shares) && r.shares[:n+1][n] != nil {
		r.shares = r.shares[:n+1] // a record kept from an earlier round
	} else {
		s := &share{r: r}
		s.arrived, s.buffered, s.acked = s.payloadArrived, s.buffer, s.end
		r.shares = append(r.shares[:n], s)
	}
	s := r.shares[n]
	s.node, s.bs, s.bytes, s.err = node, nil, 0, nil
	return s
}

// mine reports whether the round's accepted item i is backed by s.
func (s *share) mine(i int) bool { return slices.Contains(s.r.acc[i].backups, s.node) }

// replicate starts every share's chain now and parks the calling
// process until the last one has ended.
//
// The chains start in the order the runnable queue ran the processes
// the shares used to be (one Go per share, in first-seen order, then
// the writer parked): the last readied first, then the rest in order
// (DESIGN.md §11). So every booking is made, and every timer
// sequenced, where those processes made them.
func (r *round) replicate() {
	for i := range r.acc {
		for _, b := range r.acc[i].backups {
			r.shareOf(b)
		}
	}
	r.pending = len(r.shares)
	if r.pending == 0 {
		return // every item lost its backups to recoveries
	}
	last := len(r.shares) - 1
	r.shares[last].start()
	for _, s := range r.shares[:last] {
		s.start()
	}
	r.done.Wait()
}

// start sends the share's payload, one bulk transfer of every item the
// backup backs.
func (s *share) start() {
	r := s.r
	s.bs = r.c.Server(s.node)
	if s.bs == nil {
		s.end(ErrNoSuchServer)
		return
	}
	for i := range r.acc {
		if s.mine(i) {
			s.bytes += r.acc[i].blob.Size
		}
	}
	r.c.net.TransferThen(r.master, s.node, s.bytes+controlMsgSize, s.arrived)
}

// payloadArrived buffers the payload in the backup's RAM.
func (s *share) payloadArrived(err error) {
	if err != nil {
		s.end(err)
		return
	}
	c := s.r.c
	c.env().Then(c.memCopyTime(s.bytes), s.buffered)
}

// buffer installs the replicas unless the backup crashed meanwhile,
// then sends the ack and books the disk flushes, off the commit path.
// The buffer copy is retained after the flush (RAMCloud backups keep
// segments buffered while RAM allows), which is what makes
// migration-by-promotion fast; only a machine restart drops buffers
// (see Restart).
func (s *share) buffer() {
	r, bs := s.r, s.bs
	if bs.node.Down() {
		s.end(ErrCrashed)
		return
	}
	for i := range r.acc {
		if a := &r.acc[i]; s.mine(i) {
			bs.backups[a.key] = replica{blob: a.blob, meta: a.meta}
		}
	}
	r.c.net.TransferThen(s.node, r.master, controlMsgSize, s.acked)
	// The flushes are booked in the order the runnable queue ran their
	// processes (one Go per item, in acc order, then the ack's
	// transfer): the last first, then the rest in order.
	last := len(r.acc) - 1
	for !s.mine(last) {
		last--
	}
	r.c.flush(bs, r.acc[last].key, r.acc[last].meta)
	for i := 0; i < last; i++ {
		if s.mine(i) {
			r.c.flush(bs, r.acc[i].key, r.acc[i].meta)
		}
	}
}

// end records how the share ended; the last share of a round to end
// wakes the writer.
func (s *share) end(err error) {
	s.err = err
	r := s.r
	if r.pending--; r.pending == 0 {
		r.done.Set(struct{}{})
	}
}

// flushRec is one replica's disk write in flight on server s (see
// flush). Records are pooled on the Cluster; wrote is f.install, bound
// once.
type flushRec struct {
	c       *Cluster
	s       *Server
	key     string
	version uint64
	wrote   func()
}

// flush writes the replica of key at meta's version, which s holds in
// its RAM buffer, to s's disk: the disk is booked now, with no process,
// and the copy is recorded as on disk when the write completes, only if
// the buffered replica is still that version (a later write or a
// restart may have replaced or dropped it). Once recorded it survives a
// restart. Backups flush every replica they buffer, and a demoted
// master flushes its copy (promote). Once the environment is stopped
// the write completes inside flush.
func (c *Cluster) flush(s *Server, key string, meta Meta) {
	var f *flushRec
	if n := len(c.flushes); n > 0 {
		f = c.flushes[n-1]
		c.flushes = c.flushes[:n-1]
	} else {
		f = &flushRec{c: c}
		f.wrote = f.install
	}
	f.s, f.key, f.version = s, key, meta.Version
	s.node.DiskWriteThen(meta.Size, f.wrote)
}

// install records the flushed copy and recycles f.
func (f *flushRec) install() {
	s := f.s
	if cur, ok := s.backups[f.key]; ok && cur.meta.Version == f.version {
		s.disk[f.key] = cur
	}
	f.s, f.key = nil, ""
	f.c.flushes = append(f.c.flushes, f)
}
