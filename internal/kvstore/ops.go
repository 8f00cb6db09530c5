package kvstore

import (
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
// Read's result at the instant Read would have returned. Past the
// coordinator round it is a one-key batch: a read group does the
// server side. done runs as a continuation, so it must not block; the
// op's record is recycled before done runs, and once the environment
// is stopped done runs inside ReadThen.
func (c *Cluster) ReadThen(caller simnet.NodeID, key string, done func(ReadResult)) {
	o := c.newOp(caller)
	o.sp = c.tracer.Begin(0, 0, "kv.read", caller)
	o.keys[0], o.readDone = key, done
	o.lookup()
}

// WriteThen is Write as a chain of continuations, as ReadThen is Read:
// done gets Write's version and error at the instant Write would have
// returned. Past the coordinator round it is a one-item batch: a write
// group does the server side. *st is read when WriteThen is called.
func (c *Cluster) WriteThen(caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID, done func(WriteResult)) {
	o := c.newOp(caller)
	o.sp = c.tracer.Begin(0, 0, "kv.write", caller)
	o.sp.SetNum("bytes", blob.Size)
	o.write, o.preferred, o.writeDone = true, preferred, done
	o.items[0] = WriteItem{Key: key, Blob: blob}
	if st != nil {
		o.items[0].State = *st
	}
	if blob.Size > maxObjectSize {
		o.wout[0].Err = ErrTooLarge
		o.finish()
		return
	}
	o.keys[0] = key
	o.lookup()
}

// op is one Read or Write in flight. The coordinator lookup is two
// hops, the placement read at the request's arrival (asked, located),
// where the key's id is resolved and held until the op finishes; the
// master's share is the op's one group, over the one-key batch the op
// holds. Records are pooled on the Cluster with their steps bound
// once, and one is recycled before its done runs, so that done may
// start the next op on it.
type op struct {
	c         *Cluster
	caller    simnet.NodeID
	preferred simnet.NodeID
	write     bool
	found     bool // the coordinator knew the key
	sp        trace.Span

	keys  [1]string
	ids   [1]objID
	idxs  [1]int
	items [1]WriteItem
	ps    [1]placement
	spec  [1]bool
	rout  [1]ReadResult
	wout  [1]WriteResult
	b     batch
	g     group

	readDone  func(ReadResult)
	writeDone func(WriteResult)
	asked     func(error) // o.ask
	located   func(error) // o.locate
}

// newOp takes an op record from the free list, or makes one.
func (c *Cluster) newOp(caller simnet.NodeID) *op {
	var o *op
	if n := len(c.ops); n > 0 {
		o = c.ops[n-1]
		c.ops = c.ops[:n-1]
	} else {
		o = &op{c: c, ids: [1]objID{noID}}
		o.b = batch{keys: o.keys[:], ids: o.ids[:], rout: o.rout[:], items: o.items[:], ps: o.ps[:], spec: o.spec[:], wout: o.wout[:]}
		o.g.bind(c, &o.b, o.idxs[:])
		o.g.ended = o.finish
		o.asked, o.located = o.ask, o.locate
	}
	o.caller, o.g.caller = caller, caller
	return o
}

// lookup asks the coordinator for the key's placement.
func (o *op) lookup() {
	c := o.c
	c.coordRPCs++
	c.net.TransferThen(o.caller, c.coordloc, controlMsgSize, o.asked)
}

// ask reads the placement as the request reaches the coordinator and
// sends the answer back; a request that never arrived fails the op.
func (o *op) ask(err error) {
	if err != nil {
		o.locate(err)
		return
	}
	c := o.c
	o.ids[0], o.ps[0], o.found = c.resolve(o.keys[0], o.write)
	c.net.TransferThen(c.coordloc, o.caller, controlMsgSize, o.located)
}

// locate continues the op with the coordinator's answer (err: the
// request or the answer was lost): a read goes to the master it names,
// a write to it or, for a new key, to the placement made now.
func (o *op) locate(err error) {
	switch {
	case err != nil:
	case !o.write && !o.found:
		err = ErrNotFound
	case !o.write:
		o.g.read(o.ps[0].master)
		return
	default:
		o.spec[0] = !o.found
		if !o.found {
			o.ps[0], err = o.c.place(o.ids[0], o.items[0].Blob.Size, o.preferred)
		}
		if err == nil {
			o.g.write(o.ps[0].master)
			return
		}
	}
	o.rout[0].Err, o.wout[0].Err = err, err
	o.finish()
}

// finish ends the op's span, releases its key, recycles the record and
// answers done.
func (o *op) finish() {
	c := o.c
	c.releaseAll(o.ids[:])
	if o.write {
		res := o.wout[0]
		if res.Err != nil {
			o.sp.SetNum("err", 1)
		}
		c.tracer.End(&o.sp)
		done := o.writeDone
		c.recycleOp(o)
		done(res)
		return
	}
	res := o.rout[0]
	if res.Err != nil {
		res = ReadResult{Err: res.Err}
		o.sp.SetNum("err", 1)
	} else {
		o.sp.SetNum("bytes", res.Blob.Size)
	}
	c.tracer.End(&o.sp)
	done := o.readDone
	c.recycleOp(o)
	done(res)
}

// recycleOp returns a finished op to the free list, dropping its
// references to keys, payloads and continuations.
func (c *Cluster) recycleOp(o *op) {
	o.write, o.found = false, false
	o.keys[0], o.items[0], o.ps[0] = "", WriteItem{}, placement{}
	o.rout[0], o.wout[0] = ReadResult{}, WriteResult{}
	o.readDone, o.writeDone = nil, nil
	c.ops = append(c.ops, o)
}

// waiter parks a blocking Read or Write until its chain ends: read and
// wrote, bound once, are the chain's done and set the matching future.
// Waiters are pooled on the Cluster.
type waiter struct {
	rf    *sim.Future[ReadResult]
	wf    *sim.Future[WriteResult]
	read  func(ReadResult)
	wrote func(WriteResult)
}

// newWaiter takes a waiter from the free list, or makes one.
func (c *Cluster) newWaiter() *waiter {
	if n := len(c.waiters); n > 0 {
		w := c.waiters[n-1]
		c.waiters = c.waiters[:n-1]
		return w
	}
	w := &waiter{rf: sim.NewFuture[ReadResult](c.env()), wf: sim.NewFuture[WriteResult](c.env())}
	w.read, w.wrote = w.rf.Set, w.wf.Set
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
	c.waiters = append(c.waiters, w)
}

// MarkClean clears the Dirty bit of key's master copy and of its
// same-version replicas.
func (c *Cluster) MarkClean(caller simnet.NodeID, key string) error {
	ids := [1]objID{noID} // held from the coordinator's answer on
	defer c.releaseAll(ids[:])
	p, ok, lerr := c.lookup(caller, key, &ids[0])
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
	c.serverRPCs++
	if err := c.net.TryTransfer(caller, p.master, controlMsgSize); err != nil {
		return err
	}
	o, found := s.log.get(ids[0])
	if !found || s.node.Down() {
		return ErrNotFound
	}
	o.meta.State.Dirty = false
	ver := o.meta.Version
	// Clear the replicas of the same version too, so a post-recovery
	// master does not come back dirty after its payload was persisted.
	// The master piggybacks these tiny updates on its replication
	// stream; we fold the cost into the ack.
	for _, b := range p.backups.list() {
		bs := c.Server(b)
		if bs == nil {
			continue
		}
		for _, t := range [...]*table[replica]{&bs.backups, &bs.disk} {
			if rep := t.at(ids[0]); rep != nil && rep.meta.Version == ver {
				rep.meta.State.Dirty = false
			}
		}
	}
	return c.net.TryTransfer(p.master, caller, controlMsgSize)
}

// Evict removes key entirely (used for clean objects whose canonical
// copy lives in the RSDS). It is a local decision of the cacheAgent;
// only coordinator bookkeeping is charged: the master fans out tiny
// control messages to the backups, whose cost folds into the caller's
// ack path.
func (c *Cluster) Evict(key string) error {
	p, id, ok := c.placeOf(key)
	if !ok {
		return ErrNotFound
	}
	c.places.del(id)
	if s := c.Server(p.master); s != nil {
		if _, freed := s.log.delete(id); freed {
			s.evictions++
		}
	}
	for _, b := range p.backups.list() {
		if bs := c.Server(b); bs != nil {
			bs.backups.del(id)
			bs.disk.del(id)
		}
	}
	return nil
}
