package kvstore

import (
	"slices"

	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/trace"
)

// Write stores (or overwrites) key with blob. The master copy lands on
// preferred when that node has a live server with room (OFC routes
// writes to the invoking worker for locality, §6.5). The write is
// durable once all backups have buffered it, matching RAMCloud's
// commit point. Returns the new version. It is WriteThen with the
// calling process parked until the chain ends. A nil st writes the
// zero State.
func (c *Cluster) Write(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID) (uint64, error) {
	w := c.newWaiter()
	c.WriteThen(caller, key, blob, st, preferred, w.wrote)
	res := w.wf.Wait()
	c.recycleWaiter(w)
	return res.Version, res.Err
}

// Read fetches key's payload from its master, updating the OFC access
// statistics. It is ReadThen with the calling process parked until the
// chain ends.
func (c *Cluster) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	w := c.newWaiter()
	c.ReadThen(caller, key, w.read)
	res := w.rf.Wait()
	c.recycleWaiter(w)
	return res.Blob, res.Meta, res.Err
}

// ReadThen is Read as a chain of continuations: it makes Read's
// bookings at the same instants, with no process, and calls done with
// Read's result at the instant Read would have returned. It is an op
// over one key. done runs as a continuation, so it must not block; the
// op's record is recycled before done runs, and once the environment
// is stopped done runs inside ReadThen.
func (c *Cluster) ReadThen(caller simnet.NodeID, key string, done func(ReadResult)) {
	o := c.newOp(caller, opRead, 1)
	o.sp = c.tracer.Begin(0, 0, "kv.read", caller)
	o.key[0], o.readDone = key, done
	o.run()
}

// WriteThen is Write as a chain of continuations, as ReadThen is Read:
// done gets Write's version and error at the instant Write would have
// returned. A blob over the size ceiling fails before the coordinator
// round. *st is read when WriteThen is called.
func (c *Cluster) WriteThen(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID, done func(WriteResult)) {
	o := c.newOp(caller, opWrite, 1)
	o.sp = c.tracer.Begin(0, 0, "kv.write", caller)
	o.sp.SetNum("bytes", blob.Size)
	o.preferred, o.writeDone = preferred, done
	o.item[0] = WriteItem{Key: key, Blob: blob}
	if st != nil {
		o.item[0].State = *st
	}
	if blob.Size > maxObjectSize {
		o.wres[0].Err = ErrTooLarge
		o.finish()
		return
	}
	o.run()
}

// ReadMulti fetches a batch of keys: one coordinator round for the
// whole batch, then one request and one (bulk) response exchange per
// involved master. Per-key failures are reported individually in the
// result slice.
func (c *Cluster) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	out := make([]ReadResult, len(keys))
	o := c.newOp(caller, opRead, len(keys))
	o.sp = c.tracer.Begin(0, 0, "kv.readmulti", caller)
	o.sp.SetNum("keys", int64(len(keys)))
	o.b.keys, o.b.rout = keys, out
	c.wait(o)
	return out
}

// WriteMulti stores a batch of objects: one coordinator lookup and
// placement round for the whole batch, then one bulk payload transfer
// and one ack per involved master, with replica payloads likewise
// grouped per backup server. Per-item failures (ErrNoSpace,
// ErrTooLarge) are reported individually.
func (c *Cluster) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	out := make([]WriteResult, len(items))
	o := c.newOp(caller, opWrite, len(items))
	o.sp = c.tracer.Begin(0, 0, "kv.writemulti", caller)
	o.sp.SetNum("keys", int64(len(items)))
	o.preferred, o.b.items, o.b.wout = preferred, items, out
	c.wait(o)
	return out
}

// MarkClean clears the Dirty bit of key's master copy of version (at
// 0, any copy) and of its same-version replicas, else ErrNotFound.
func (c *Cluster) MarkClean(caller simnet.NodeID, key string, version uint64) error {
	o := c.newOp(caller, opClean, 1)
	o.sp, o.key[0], o.b.version = trace.Span{}, key, version // no span
	return c.wait(o)
}

// opKind is what an op asks of each key's master.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opClean
)

// op is one data-plane operation in flight over a batch of keys: a
// Read, Write, ReadMulti, WriteMulti or MarkClean. Its coordinator
// round is two hops, and each key is resolved as the request arrives
// (asked), its id held until the op ends; with the answer (located)
// each key goes to its master's group, and the op ends when its last
// group has. A single-key op's batch is the record's own arrays; a
// batch's keys, items and results are its caller's slices until it
// ends. Records are pooled on the Cluster with their steps bound once,
// and one is recycled before its done runs, so that done may start the
// next op on it.
type op struct {
	c         *Cluster
	caller    simnet.NodeID
	preferred simnet.NodeID
	sp        trace.Span
	b         batch
	groups    []*group
	pending   int // groups not yet ended

	key  [1]string
	item [1]WriteItem
	rres [1]ReadResult
	wres [1]WriteResult

	readDone  func(ReadResult)  // ReadThen's
	writeDone func(WriteResult) // WriteThen's
	done      func(error)       // a batch's, or a clean's with its error
	asked     func(error)       // o.ask
	located   func(error)       // o.locate
	ended     func()            // o.groupEnded
}

// newOp takes an op record from the free list, or makes one, for n
// keys.
func (c *Cluster) newOp(caller simnet.NodeID, kind opKind, n int) *op {
	var o *op
	if k := len(c.ops); k > 0 {
		o = c.ops[k-1]
		c.ops = c.ops[:k-1]
	} else {
		o = &op{c: c}
		o.asked, o.located, o.ended = o.ask, o.locate, o.groupEnded
		o.b.keys, o.b.items, o.b.rout, o.b.wout = o.key[:], o.item[:], o.rres[:], o.wres[:]
	}
	b := &o.b
	o.caller, b.kind = caller, kind
	b.ids = slices.Grow(b.ids[:0], n)[:n]
	for i := range b.ids {
		b.ids[i] = noID
	}
	b.ps = slices.Grow(b.ps[:0], n)[:n]
	b.spec = slices.Grow(b.spec[:0], n)[:n]
	return o
}

// run asks the coordinator for the placements; an op over no key ends
// at once.
func (o *op) run() {
	if len(o.b.ids) == 0 {
		o.finish()
		return
	}
	c := o.c
	c.stats.CoordRPCs++
	c.net.TransferThen(o.caller, c.coordloc, controlMsgSize, o.asked)
}

// ask resolves every key as the request reaches the coordinator — a
// write interns its keys and marks the unplaced ones speculative — and
// sends the answer back; a request that never arrived fails the op.
func (o *op) ask(err error) {
	if err != nil {
		o.locate(err)
		return
	}
	c, b := o.c, &o.b
	for i := range b.ids {
		if b.kind == opWrite {
			var placed bool
			b.ids[i], b.ps[i], placed = c.resolve(b.items[i].Key, true)
			b.spec[i] = !placed
		} else {
			b.ids[i], b.ps[i], _ = c.resolve(b.keys[i], false)
		}
	}
	c.net.TransferThen(c.coordloc, o.caller, controlMsgSize, o.located)
}

// locate continues the op with the coordinator's answer (err: the
// request or the answer was lost). A key goes to the group of the
// master the answer names, a new key of a write to the placement made
// now; a key that cannot fails here. Then the groups start, in the
// order the runnable queue ran the processes they used to be (one Go
// per group, in first-seen order, then the caller parked): the last
// readied first, then the rest in order (DESIGN.md §11).
func (o *op) locate(err error) {
	c, b := o.c, &o.b
	for i := range b.ids {
		e := err
		switch {
		case e != nil:
		case b.kind != opWrite:
			if b.ids[i] == noID {
				e = ErrNotFound
			}
		case b.items[i].Blob.Size > maxObjectSize:
			e = ErrTooLarge
		case b.spec[i]:
			b.ps[i], e = c.place(b.ids[i], b.items[i].Blob.Size, o.preferred)
		}
		if e != nil {
			*b.err(i), b.spec[i] = e, false
			continue
		}
		o.groupAppend(b.ps[i].master, i)
	}
	if o.pending = len(o.groups); o.pending == 0 {
		o.finish()
		return
	}
	last := len(o.groups) - 1
	o.groups[last].start()
	for _, g := range o.groups[:last] {
		g.start()
	}
}

// groupAppend files key i under master's group, adding a group for a
// master not seen yet, on a record an earlier op kept where there is
// one. Groups keep first-seen master order, which is what keeps the
// fan-out deterministic; batches touch a handful of servers (six nodes
// in the paper's testbed), so a linear scan finds the group.
func (o *op) groupAppend(master simnet.NodeID, i int) {
	for _, g := range o.groups {
		if g.master == master {
			g.idxs = append(g.idxs, i)
			return
		}
	}
	n := len(o.groups)
	if n < cap(o.groups) && o.groups[:n+1][n] != nil {
		o.groups = o.groups[:n+1]
	} else {
		o.groups = append(o.groups[:n], o.newGroup())
	}
	g := o.groups[n]
	g.caller, g.master, g.idxs = o.caller, master, append(g.idxs[:0], i)
}

// groupEnded counts a group down; the last ends the op.
func (o *op) groupEnded() {
	if o.pending--; o.pending == 0 {
		o.finish()
	}
}

// finish releases the op's keys and groups, ends its span, recycles the
// record and answers the caller.
func (o *op) finish() {
	c, b := o.c, &o.b
	c.releaseAll(b.ids)
	o.groups = o.groups[:0]
	var errs int64
	for i := range b.ids {
		if *b.err(i) != nil {
			errs++
		}
	}
	if errs > 0 {
		o.sp.SetNum("err", errs)
	} else if o.readDone != nil {
		o.sp.SetNum("bytes", o.rres[0].Blob.Size)
	}
	c.tracer.End(&o.sp)
	switch read, wrote, done := o.readDone, o.writeDone, o.done; {
	case read != nil:
		res := o.rres[0]
		if res.Err != nil {
			res = ReadResult{Err: res.Err}
		}
		c.recycleOp(o)
		read(res)
	case wrote != nil:
		res := o.wres[0]
		c.recycleOp(o)
		wrote(res)
	default:
		err := o.rres[0].Err // a clean's; nil for a batch
		b.keys, b.items, b.rout, b.wout = o.key[:], o.item[:], o.rres[:], o.wres[:]
		c.recycleOp(o)
		done(err)
	}
}

// recycleOp returns a finished op to the free list, dropping its
// references to keys, payloads, results and continuations (finish has
// pointed a batch's slices back at the record's arrays).
func (c *Cluster) recycleOp(o *op) {
	o.key[0], o.item[0], o.rres[0], o.wres[0] = "", WriteItem{}, ReadResult{}, WriteResult{}
	o.readDone, o.writeDone, o.done = nil, nil, nil
	c.ops = append(c.ops, o)
}

// wait runs o with the calling process parked until it ends, and
// returns a clean's error.
func (c *Cluster) wait(o *op) error {
	w := c.newWaiter()
	o.done = w.ended
	o.run()
	err := w.ef.Wait()
	c.recycleWaiter(w)
	return err
}

// waiter parks a blocking op until its chain ends: read, wrote and
// ended, bound once, are the chain's done and set the matching future.
// Waiters are pooled on the Cluster.
type waiter struct {
	rf    *sim.Future[ReadResult]
	wf    *sim.Future[WriteResult]
	ef    *sim.Future[error]
	read  func(ReadResult)
	wrote func(WriteResult)
	ended func(error)
}

// newWaiter takes a waiter from the free list, or makes one.
func (c *Cluster) newWaiter() *waiter {
	if n := len(c.waiters); n > 0 {
		w := c.waiters[n-1]
		c.waiters = c.waiters[:n-1]
		return w
	}
	w := &waiter{rf: sim.NewFuture[ReadResult](c.env()), wf: sim.NewFuture[WriteResult](c.env()), ef: sim.NewFuture[error](c.env())}
	w.read, w.wrote, w.ended = w.rf.Set, w.wf.Set, w.ef.Set
	return w
}

// recycleWaiter returns a waiter whose answer has been taken.
func (c *Cluster) recycleWaiter(w *waiter) {
	if w.rf.Done() {
		w.rf.Reset()
	}
	if w.wf.Done() {
		w.wf.Reset()
	}
	if w.ef.Done() {
		w.ef.Reset()
	}
	c.waiters = append(c.waiters, w)
}

// Evict removes key entirely (used for clean objects whose canonical
// copy lives in the RSDS). It is a local decision of the cacheAgent;
// only coordinator bookkeeping is charged: the master fans out tiny
// control messages to the backups, whose cost folds into the caller's
// ack path. A master copy of another version than a nonzero version
// stays, and Evict reports ErrNotFound.
func (c *Cluster) Evict(key string, version uint64) error {
	p, id, ok := c.placeOf(key)
	if !ok {
		return ErrNotFound
	}
	s := c.Server(p.master) // a placement names only servers' nodes
	if o, ok := s.log.get(id); version != 0 && (!ok || o.meta.Version != version) {
		return ErrNotFound
	}
	c.places.del(id)
	s.log.delete(id)
	for _, b := range p.backups.list() {
		if bs := c.Server(b); bs != nil {
			bs.backups.del(id)
			bs.disk.del(id)
		}
	}
	return nil
}
