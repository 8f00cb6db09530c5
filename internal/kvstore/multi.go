package kvstore

// The master side of the data-plane protocols, each implemented once,
// per master, as a chain of continuations with no process: a read group
// serves one master's share of an op's keys, a clean group clears their
// Dirty bits, and a write group lands its share of a write and
// replicates it in one round: per backup, a chain of continuations
// (payload hop, RAM buffering, install, ack hop, disk flush bookings).
// Each step is a simnet.TransferThen hop or a sim.Env.Then delay, booked
// at the instant a process sleeping through the same steps would book
// it. An op (ops.go) makes one coordinator round for all its keys and
// runs one group per master: one control round-trip and one bulk
// transfer per involved server instead of one per key. The chunking
// middleware's stripes go through the batch paths.

import (
	"slices"
	"time"

	"ofc/internal/simnet"
)

// ReadResult is the outcome of one key of a ReadMulti.
type ReadResult struct {
	Blob Blob
	Meta Meta
	Err  error
}

// WriteItem is one object of a WriteMulti batch.
type WriteItem struct {
	Key   string
	Blob  Blob
	State State
}

// WriteResult is the outcome of one item of a WriteMulti.
type WriteResult struct {
	Version uint64
	Err     error
}

// batch is what the groups of one op read and write, indexed by their
// idxs: the keys' ids, which the op holds, and their placements; a
// read's or a clean's keys and results, or a write's items, speculative
// marks (placements this op made) and results.
type batch struct {
	kind  opKind
	keys  []string
	ids   []objID
	rout  []ReadResult
	items []WriteItem
	ps    []placement
	spec  []bool
	wout  []WriteResult
}

// err is key i's error.
func (b *batch) err(i int) *error {
	if b.kind == opWrite {
		return &b.wout[i].Err
	}
	return &b.rout[i].Err
}

// group is one master's share of an op in flight, a read's, a write's
// or a clean's, as a chain of continuations; ended is its op's next
// step. A write group lands its share on the master and replicates what
// the master accepted in one round (see round). Only a write that never
// reached the master's log (its payload transfer failed, or it did not
// fit) undoes the placement its op made (speculative): an object the
// master logged keeps its placement, or Evict could not reach its
// bytes. An accepted item reports the first of its backups to fail, in
// placement order, else the ack's failure. A group's steps are method
// values bound once, when the record is made. An op keeps the group
// records it made for the next op on it.
type group struct {
	c              *Cluster
	b              *batch
	idxs           []int
	caller, master simnet.NodeID
	s              *Server
	bytes          int64 // a write's payload
	r              *round
	ended          func()

	readAsked  func(error) // g.readArrived
	served     func()      // g.serve
	crossed    func()      // g.lookUp
	replied    func(error) // g.reply
	shipped    func(error) // g.payloadArrived
	logged     func()      // g.log
	cleaned    func()      // g.clean
	replicated func()      // g.ack
	acked      func(error) // g.ackArrived
	markAsked  func(error) // g.markArrived
}

// newGroup makes a group record of o.
func (o *op) newGroup() *group {
	g := &group{c: o.c, b: &o.b, ended: o.ended}
	g.readAsked, g.served, g.crossed, g.replied = g.readArrived, g.serve, g.lookUp, g.reply
	g.shipped, g.logged, g.cleaned, g.replicated, g.acked = g.payloadArrived, g.log, g.clean, g.ack, g.ackArrived
	g.markAsked = g.markArrived
	return g
}

// start sends the group's request to its master: a read's or a
// clean's is one control message, a write's one bulk shipment of its
// share's payloads.
func (g *group) start() {
	c, b := g.c, g.b
	if g.s = c.Server(g.master); g.s == nil {
		g.fail(ErrNoSuchServer, false)
		return
	}
	c.stats.ServerRPCs++
	switch b.kind {
	case opRead:
		c.net.TransferThen(g.caller, g.master, controlMsgSize, g.readAsked)
	case opClean:
		c.net.TransferThen(g.caller, g.master, controlMsgSize, g.markAsked)
	default:
		g.bytes = 0
		for _, i := range g.idxs {
			g.bytes += b.items[i].Blob.Size
		}
		c.net.TransferThen(g.caller, g.master, g.bytes+controlMsgSize, g.shipped)
	}
}

// fail reports err for the whole share and ends it; undo also drops
// the placements this op made.
func (g *group) fail(err error, undo bool) {
	b := g.b
	for _, i := range g.idxs {
		*b.err(i) = err
		if undo && b.spec[i] {
			g.c.places.del(b.ids[i])
		}
	}
	g.ended()
}

// readArrived charges the master's serve time.
func (g *group) readArrived(err error) {
	if err != nil {
		g.fail(err, false)
		return
	}
	g.c.env().Then(time.Duration(len(g.idxs))*serveOverhead, g.served)
}

// serve charges the remote-hit software penalty, once per batch, not
// once per key — the main latency win of batching.
func (g *group) serve() {
	if g.caller != g.master {
		g.c.env().Then(crossNodeOverhead, g.crossed)
		return
	}
	g.lookUp()
}

// lookUp reads the share's keys at the master, unless it crashed
// meanwhile, and ships what it found in one bulk response.
func (g *group) lookUp() {
	if g.s.node.Down() {
		g.fail(ErrCrashed, false)
		return
	}
	b := g.b
	var payload int64
	found := 0
	now := g.c.env().Now()
	for _, i := range g.idxs {
		o, ok := g.s.log.get(b.ids[i])
		if !ok {
			b.rout[i].Err = ErrNotFound
			continue
		}
		o.meta.NAccess++
		o.meta.LastAccess = now
		b.rout[i].Blob, b.rout[i].Meta = o.blob, o.meta
		payload += o.blob.Size
		found++
	}
	if found == 0 {
		g.ended()
		return
	}
	// One bulk response carrying every found payload.
	g.c.net.TransferThen(g.master, g.caller, payload+controlMsgSize, g.replied)
}

// reply ends a read or a clean.
func (g *group) reply(err error) {
	if err != nil {
		g.fail(err, false)
		return
	}
	g.ended()
}

// payloadArrived charges the master's serve and copy time.
func (g *group) payloadArrived(err error) {
	if err != nil {
		g.fail(err, true)
		return
	}
	c := g.c
	c.env().Then(time.Duration(len(g.idxs))*serveOverhead+c.memCopyTime(g.bytes), g.logged)
}

// log is the master-side processing: unless the master crashed
// meanwhile, every item that fits its grant is logged, and the cleaner
// runs if the log outgrew the grant.
func (g *group) log() {
	c, b, s := g.c, g.b, g.s
	if s.node.Down() {
		g.fail(ErrCrashed, false)
		return
	}
	r := c.newRound(g.master)
	g.r = r
	limit := s.node.Grant()
	now := c.env().Now()
	for _, i := range g.idxs {
		it, id := b.items[i], b.ids[i]
		old, existed := s.log.get(id)
		delta := it.Blob.Size
		if existed {
			delta -= old.meta.Size
		}
		if s.log.live+delta > limit {
			b.wout[i].Err = ErrNoSpace
			if b.spec[i] { // undo speculative placement of a brand-new object
				c.places.del(id)
			}
			continue
		}
		c.nextVer++
		meta := Meta{
			Version: c.nextVer, Size: it.Blob.Size, Created: now,
			LastAccess: now, State: it.State,
		}
		if existed {
			meta.Created, meta.NAccess = old.meta.Created, old.meta.NAccess
		}
		s.log.put(id, &object{blob: it.Blob, meta: meta})
		r.acc = append(r.acc, acceptedItem{idx: i, id: id, blob: it.Blob, meta: meta,
			backups: b.ps[i].backups, resized: existed && !b.spec[i]})
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
			if p := c.places.at(a.id); p != nil {
				p.size = a.blob.Size
			}
		}
	}
	if cleanedBytes > 0 {
		c.env().Then(c.memCopyTime(cleanedBytes), g.cleaned)
		return
	}
	g.clean()
}

// clean replicates what the master accepted, once the cleaner is done.
func (g *group) clean() {
	if len(g.r.acc) == 0 {
		g.endWrite()
		return
	}
	g.r.replicate(g.replicated)
}

// ack sends the ack to the caller, one control message for the group,
// once the round has ended.
func (g *group) ack() {
	g.c.net.TransferThen(g.master, g.caller, controlMsgSize, g.acked)
}

// ackArrived reports each accepted item's outcome.
func (g *group) ackArrived(ackErr error) {
	r := g.r
	for i := range r.acc {
		a := &r.acc[i]
		err := ackErr
		for _, b := range a.backups.list() {
			if e := r.shareOf(b).err; e != nil {
				err = e
				break
			}
		}
		if err != nil {
			g.b.wout[a.idx].Err = err
		} else {
			g.b.wout[a.idx].Version = a.meta.Version
		}
	}
	g.endWrite()
}

// endWrite recycles the group's round, if it made one, and ends it.
func (g *group) endWrite() {
	if g.r != nil {
		g.c.recycleRound(g.r)
		g.r = nil
	}
	g.ended()
}

// markArrived clears the Dirty bit of each key's master copy, unless
// the master crashed meanwhile or no longer holds the key, and of its
// replicas of the same version, so that a post-recovery master does not
// come back dirty after its payload was persisted. The master
// piggybacks these tiny updates on its replication stream; their cost
// folds into the reply, which a master that cleaned nothing skips.
func (g *group) markArrived(err error) {
	if err != nil {
		g.fail(err, false)
		return
	}
	c, b, s := g.c, g.b, g.s
	cleaned := 0
	for _, i := range g.idxs {
		o, ok := s.log.get(b.ids[i])
		if !ok || s.node.Down() {
			b.rout[i].Err = ErrNotFound
			continue
		}
		o.meta.State.Dirty = false
		for _, n := range b.ps[i].backups.list() {
			if bs := c.Server(n); bs != nil {
				for _, t := range [...]*table[object]{&bs.backups, &bs.disk} {
					if rep := t.at(b.ids[i]); rep != nil && rep.meta.Version == o.meta.Version {
						rep.meta.State.Dirty = false
					}
				}
			}
		}
		cleaned++
	}
	if cleaned == 0 {
		g.ended()
		return
	}
	c.net.TransferThen(g.master, g.caller, controlMsgSize, g.replied)
}

// acceptedItem is one object a master logged: what its backups buffer,
// and where its outcome goes (out[idx]). resized marks the overwrite of
// an object the coordinator already placed. Its id is held by the op
// the round replicates for.
type acceptedItem struct {
	idx     int
	id      objID
	blob    Blob
	meta    Meta
	backups backupSet
	resized bool
}

// round is the replication of one write group: the items the master
// accepted, one share per backup node they name, in first-seen order,
// so that each backup sees one bulk transfer and one ack for its whole
// share, and the countdown of the shares still running. A share is a
// chain of continuations, not a process: its payload hop
// (simnet.TransferThen), the RAM-buffer delay (sim.Env.Then), the crash
// check and install, the ack hop and the disk flush bookings. When the
// last share has ended, the round calls then, the write group's next
// step. Rounds are pooled on the Cluster, each with its share records.
type round struct {
	c       *Cluster
	master  simnet.NodeID
	acc     []acceptedItem
	shares  []*share
	pending int // shares not yet ended
	// holds counts the steps running on the round's records (the start
	// loop, a share's buffering) that then must not interrupt: a chain
	// that ends inside one, as every chain does once the environment is
	// stopped, leaves then to run once the step is done, where the
	// writer process the round used to wake would have run.
	holds int
	then  func()
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
		r = &round{c: c}
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
	r.then = nil
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
func (s *share) mine(i int) bool { return slices.Contains(s.r.acc[i].backups.list(), s.node) }

// replicate starts every share's chain now, and calls then once the
// last one has ended.
//
// The chains start in the order the runnable queue ran the processes
// the shares used to be (one Go per share, in first-seen order, then
// the writer parked): the last readied first, then the rest in order
// (DESIGN.md §11). So every booking is made, and every timer
// sequenced, where those processes made them.
func (r *round) replicate(then func()) {
	for i := range r.acc {
		for _, b := range r.acc[i].backups.list() {
			r.shareOf(b)
		}
	}
	r.pending, r.then = len(r.shares), then
	if r.pending == 0 {
		then() // every item lost its backups to recoveries
		return
	}
	r.holds++
	last := len(r.shares) - 1
	r.shares[last].start()
	for _, s := range r.shares[:last] {
		s.start()
	}
	r.release()
}

// release ends a hold on r; the last one out calls then if every share
// has ended meanwhile.
func (r *round) release() {
	if r.holds--; r.holds == 0 && r.pending == 0 {
		r.then()
	}
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
	r.holds++
	for i := range r.acc {
		if a := &r.acc[i]; s.mine(i) {
			bs.backups.set(a.id, object{blob: a.blob, meta: a.meta})
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
	r.c.flush(bs, r.acc[last].id, r.acc[last].meta)
	for i := 0; i < last; i++ {
		if s.mine(i) {
			r.c.flush(bs, r.acc[i].id, r.acc[i].meta)
		}
	}
	r.release()
}

// end records how the share ended; the last share of a round to end
// calls then, unless a step that holds the round is still running.
func (s *share) end(err error) {
	s.err = err
	r := s.r
	if r.pending--; r.pending == 0 && r.holds == 0 {
		r.then()
	}
}

// flushRec is one replica's disk write in flight on server s (see
// flush), holding its id until it installs. Records are pooled on the
// Cluster; wrote is f.install, bound once.
type flushRec struct {
	c       *Cluster
	s       *Server
	id      objID
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
func (c *Cluster) flush(s *Server, id objID, meta Meta) {
	var f *flushRec
	if n := len(c.flushes); n > 0 {
		f = c.flushes[n-1]
		c.flushes = c.flushes[:n-1]
	} else {
		f = &flushRec{c: c}
		f.wrote = f.install
	}
	c.keys.hold(id)
	f.s, f.id, f.version = s, id, meta.Version
	s.node.DiskWriteThen(meta.Size, f.wrote)
}

// install records the flushed copy, releases the id and recycles f.
func (f *flushRec) install() {
	s := f.s
	if cur, ok := s.backups.get(f.id); ok && cur.meta.Version == f.version {
		s.disk.set(f.id, cur)
	}
	f.c.keys.release(f.id)
	f.s, f.id = nil, noID
	f.c.flushes = append(f.c.flushes, f)
}
