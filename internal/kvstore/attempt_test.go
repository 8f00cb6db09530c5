package kvstore

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// The process model of the read and write protocols: Read, Write,
// ReadMulti, WriteMulti and MarkClean as they were written before they
// became chains of continuations, each step a TryTransfer or a Sleep of
// the process that runs the op, one process per master of a batch, and
// replication through refReplicate (replication_test.go). It reads and
// writes the store's tables by key (tables_test.go).

// refLookup is the coordinator round of Read and Write: the placement
// of key, read as the request arrives.
func refLookup(c *Cluster, caller simnet.NodeID, key string) (placement, bool, error) {
	ps, oks, err := refLookupMulti(c, caller, []string{key})
	if err != nil {
		return placement{}, false, err
	}
	return ps[0], oks[0], nil
}

// refLookupMulti is the coordinator round of ReadMulti and WriteMulti.
func refLookupMulti(c *Cluster, caller simnet.NodeID, keys []string) ([]placement, []bool, error) {
	type res struct {
		ps []placement
		ok []bool
	}
	c.stats.CoordRPCs++
	r, err := simnet.TryCall(c.net, caller, c.coordloc, controlMsgSize, controlMsgSize, func() res {
		ps := make([]placement, len(keys))
		ok := make([]bool, len(keys))
		for i, k := range keys {
			ps[i], ok[i] = c.places.lookupKey(k)
		}
		return res{ps, ok}
	})
	return r.ps, r.ok, err
}

// refRead is Read as a process.
func refRead(c *Cluster, caller simnet.NodeID, key string, n *refCounts) ReadResult {
	var out [1]ReadResult
	if p, ok, err := refLookup(c, caller, key); err != nil {
		out[0].Err = err
	} else if !ok {
		out[0].Err = ErrNotFound
	} else {
		keys, idxs := [1]string{key}, [1]int{0}
		refReadGroup(c, caller, p.master, keys[:], idxs[:], out[:], n)
	}
	if out[0].Err != nil {
		return ReadResult{Err: out[0].Err}
	}
	return out[0]
}

// refWrite is Write as a process.
func refWrite(c *Cluster, caller simnet.NodeID, key string, blob Blob, st *State, preferred simnet.NodeID, n *refCounts) WriteResult {
	var out [1]WriteResult
	if blob.Size > maxObjectSize {
		out[0].Err = ErrTooLarge
	} else if p, ok, err := refLookup(c, caller, key); err != nil {
		out[0].Err = err
	} else {
		ps, speculative := [1]placement{p}, [1]bool{!ok}
		if !ok {
			ps[0], out[0].Err = c.placeKey(key, blob.Size, preferred)
		}
		if out[0].Err == nil {
			items, idxs := [1]WriteItem{{Key: key, Blob: blob}}, [1]int{0}
			if st != nil {
				items[0].State = *st
			}
			refWriteGroup(c, caller, ps[0].master, items[:], ps[:], speculative[:], idxs[:], out[:], n)
		}
	}
	return out[0]
}

// refMarkClean is MarkClean as a process: the coordinator round, then
// one exchange with the master, which clears the Dirty bit of its copy
// and of the replicas of the same version.
func refMarkClean(c *Cluster, caller simnet.NodeID, key string) error {
	p, ok, err := refLookup(c, caller, key)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	s := c.Server(p.master)
	if s == nil {
		return ErrNoSuchServer
	}
	c.stats.ServerRPCs++
	if err := c.net.TryTransfer(caller, p.master, controlMsgSize); err != nil {
		return err
	}
	o, found := s.log.getKey(key)
	if !found || s.node.Down() {
		return ErrNotFound
	}
	o.meta.State.Dirty = false
	for _, b := range p.backups.list() {
		bs := c.Server(b)
		if bs == nil {
			continue
		}
		for _, t := range [...]*table[object]{&bs.backups, &bs.disk} {
			if rep, ok := t.lookupKey(key); ok && rep.meta.Version == o.meta.Version {
				rep.meta.State.Dirty = false
				t.setKey(key, rep)
			}
		}
	}
	return c.net.TryTransfer(p.master, caller, controlMsgSize)
}

// idxGroup is one master's share of a batch: the batch indices it owns.
type idxGroup struct {
	node simnet.NodeID
	idxs []int
}

// groupAppend files batch index i under node, in first-seen node order.
func groupAppend(groups []idxGroup, node simnet.NodeID, i int) []idxGroup {
	for g := range groups {
		if groups[g].node == node {
			groups[g].idxs = append(groups[g].idxs, i)
			return groups
		}
	}
	return append(groups, idxGroup{node: node, idxs: []int{i}})
}

// refServeGroups runs serve on every group, each in its own process,
// and waits for all of them.
func refServeGroups(env *sim.Env, groups []idxGroup, serve func(g idxGroup)) {
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

// refReadMulti is ReadMulti with one process per master.
func refReadMulti(c *Cluster, caller simnet.NodeID, keys []string, n *refCounts) []ReadResult {
	out := make([]ReadResult, len(keys))
	ps, oks, lerr := refLookupMulti(c, caller, keys)
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
	refServeGroups(c.env(), groups, func(g idxGroup) { refReadGroup(c, caller, g.node, keys, g.idxs, out, n) })
	return out
}

// refWriteMulti is WriteMulti with one process per master.
func refWriteMulti(c *Cluster, caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID, n *refCounts) []WriteResult {
	out := make([]WriteResult, len(items))
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	ps, oks, lerr := refLookupMulti(c, caller, keys)
	speculative := make([]bool, len(items))
	var groups []idxGroup
	for i, it := range items {
		switch {
		case lerr != nil:
			out[i].Err = lerr
		case it.Blob.Size > maxObjectSize:
			out[i].Err = ErrTooLarge
		case !oks[i]:
			ps[i], out[i].Err = c.placeKey(it.Key, it.Blob.Size, preferred)
			speculative[i] = out[i].Err == nil
		}
		if out[i].Err == nil {
			groups = groupAppend(groups, ps[i].master, i)
		}
	}
	refServeGroups(c.env(), groups, func(g idxGroup) { refWriteGroup(c, caller, g.node, items, ps, speculative, g.idxs, out, n) })
	return out
}

// refReadGroup is a read group as a process.
func refReadGroup(c *Cluster, caller, master simnet.NodeID, keys []string, idxs []int, out []ReadResult, n *refCounts) {
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
	c.stats.ServerRPCs++
	if err := c.net.TryTransfer(caller, master, controlMsgSize); err != nil {
		fail(err)
		return
	}
	env.Sleep(time.Duration(len(idxs)) * serveOverhead)
	if caller != master {
		env.Sleep(crossNodeOverhead)
	}
	if s.node.Down() {
		n.crashedAtServe++
		fail(ErrCrashed)
		return
	}
	var payload int64
	found := 0
	now := env.Now()
	for _, i := range idxs {
		o, ok := s.log.getKey(keys[i])
		if !ok {
			out[i].Err = ErrNotFound
			continue
		}
		o.meta.NAccess++
		o.meta.LastAccess = now
		out[i].Blob, out[i].Meta = o.blob, o.meta
		payload += o.blob.Size
		found++
	}
	if found == 0 {
		return
	}
	if err := c.net.TryTransfer(master, caller, payload+controlMsgSize); err != nil {
		fail(err)
	}
}

// refWriteGroup is a write group as a process.
func refWriteGroup(c *Cluster, caller, master simnet.NodeID, items []WriteItem, ps []placement, speculative []bool, idxs []int, out []WriteResult, n *refCounts) {
	fail := func(err error, undo bool) {
		for _, i := range idxs {
			out[i].Err = err
			if undo && speculative[i] {
				c.places.delKey(items[i].Key)
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
	c.stats.ServerRPCs++
	if err := c.net.TryTransfer(caller, master, total+controlMsgSize); err != nil {
		fail(err, true)
		return
	}
	env.Sleep(time.Duration(len(idxs))*serveOverhead + c.memCopyTime(total))
	if s.node.Down() {
		n.crashedAtServe++
		fail(ErrCrashed, false)
		return
	}
	limit := s.node.Grant()
	now := env.Now()
	var acc []refItem
	for _, i := range idxs {
		it := items[i]
		old, existed := s.log.getKey(it.Key)
		delta := it.Blob.Size
		if existed {
			delta -= old.meta.Size
		}
		if s.log.live+delta > limit {
			out[i].Err = ErrNoSpace
			if speculative[i] {
				c.places.delKey(it.Key)
			}
			continue
		}
		c.nextVer++
		meta := Meta{Version: c.nextVer, Size: it.Blob.Size, Created: now, LastAccess: now, State: it.State}
		if existed {
			meta.Created, meta.NAccess = old.meta.Created, old.meta.NAccess
		}
		s.log.putKey(it.Key, &object{blob: it.Blob, meta: meta})
		acc = append(acc, refItem{idx: i, key: it.Key, blob: it.Blob, meta: meta,
			backups: slices.Clone(ps[i].backups.list()), resized: existed && !speculative[i]})
	}
	var cleanedBytes int64
	if len(acc) > 0 && s.log.alloc > limit {
		cleanedBytes = s.log.clean(limit)
	}
	for _, a := range acc {
		if p, ok := c.places.lookupKey(a.key); ok && a.resized {
			p.size = a.blob.Size
			c.places.setKey(a.key, p)
		}
	}
	if cleanedBytes > 0 {
		env.Sleep(c.memCopyTime(cleanedBytes))
	}
	if len(acc) == 0 {
		return
	}
	shares := refReplicate(c, master, acc, n)
	ackErr := c.net.TryTransfer(master, caller, controlMsgSize)
	for _, a := range acc {
		err := ackErr
		for _, b := range a.backups {
			if e := shares[slices.IndexFunc(shares, func(s refShare) bool { return s.node == b })].err; e != nil {
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

// The attempt, as store.Resilient runs it: each try starts the op and
// waits for its answer with a deadline; a timed-out or unavailable try
// is retried after a doubling backoff, while a timed-out op runs on.
const (
	attTimeout = 4 * time.Millisecond
	attRetries = 2
	attBackoff = 300 * time.Microsecond
)

// attKind is what one caller of an attempt schedule does.
type attKind uint8

const (
	attRead attKind = iota
	attWrite
	attReadMulti  // a batch read, not raced against a deadline
	attWriteMulti // a batch write, likewise
	attMarkClean  // a MarkClean, likewise
)

// attOp is one caller of an attempt schedule: at `at` it makes op kind
// on keys (writes of sizes) from caller, preferring caller.
type attOp struct {
	at     time.Duration
	caller simnet.NodeID
	kind   attKind
	keys   []string
	sizes  []int64
}

// attTry is one try of a raced op: when it started, and when and how
// its op ended (end -1: never), whoever was still waiting.
type attTry struct {
	op       int
	start    sim.Time
	end      sim.Time
	timedOut bool
	err      error
	version  uint64
}

// attOutcome is what a run of an attempt schedule leaves: each op's
// completion instant (-1: never), per-key errors and answers (a
// version written or read), every try, the events dispatched, each
// server's master, buffered and flushed copies, its dirty replicas, and
// the placements.
type attOutcome struct {
	done     []sim.Time
	errs     [][]error
	answers  [][]uint64
	tries    []attTry
	events   int64
	masters  []map[string]Meta
	backups  []map[string]uint64
	disk     []map[string]uint64
	dirty    []map[string]bool
	places   map[string]placement
	timedOut int // writes whose try timed out and whose op still landed
}

// attSchedule draws ops callers from rng, on instants and sizes
// continuous to the nanosecond and the byte, over a small set of keys
// so that writers and readers of one key race, plus twelve faults as
// repSchedule draws them.
func attSchedule(rng *rand.Rand, ops int) ([]attOp, []repFault) {
	const window = attWindow
	out := make([]attOp, ops)
	for i := range out {
		o := &out[i]
		o.at = time.Duration(rng.Int63n(int64(window)))
		o.caller = simnet.NodeID(rng.Intn(repNodes + 1))
		switch r := rng.Intn(10); { // reads and writes four times as often as batches
		case r < 4:
			o.kind = attRead
		case r < 8:
			o.kind = attWrite
		default:
			o.kind = attKind(r - 6)
		}
		n := 1
		if o.kind >= attReadMulti {
			n = 2 + rng.Intn(3)
		}
		for k := 0; k < n; k++ {
			o.keys = append(o.keys, fmt.Sprintf("k%d", rng.Intn(10)))
			o.sizes = append(o.sizes, 1+rng.Int63n(512<<10))
		}
	}
	slices.SortStableFunc(out, func(a, b attOp) int { return int(a.at - b.at) })
	faults := make([]repFault, 12)
	for i := range faults {
		f := &faults[i]
		f.at = time.Duration(rng.Int63n(int64(window)))
		f.dur = time.Duration(1+rng.Intn(4000)) * time.Microsecond
		if f.partition = rng.Intn(3) == 0; f.partition {
			f.a = simnet.NodeID(rng.Intn(repNodes))
			f.b = (f.a + 1 + simnet.NodeID(rng.Intn(repNodes-1))) % repNodes
		} else {
			f.node = simnet.NodeID(rng.Intn(repNodes))
			f.down = rng.Intn(2) == 0 // here: a crash the coordinator recovers from
		}
	}
	return out, faults
}

// attWindow is the span of virtual time a schedule's callers start in.
const attWindow = 40 * time.Millisecond

// withCleans returns sched with n MarkClean callers added, drawn from
// rng over sched's keys and callers, in instant order.
func withCleans(rng *rand.Rand, sched []attOp, n int) []attOp {
	out := slices.Clone(sched)
	for i := 0; i < n; i++ {
		out = append(out, attOp{
			at:     time.Duration(rng.Int63n(int64(attWindow))),
			caller: simnet.NodeID(rng.Intn(repNodes + 1)),
			kind:   attMarkClean,
			keys:   []string{fmt.Sprintf("k%d", rng.Intn(10))},
		})
	}
	slices.SortStableFunc(out, func(a, b attOp) int { return int(a.at - b.at) })
	return out
}

// unavailable is store.IsUnavailable minus its own sentinels.
func unavailable(err error) bool {
	return errors.Is(err, ErrCrashed) || errors.Is(err, ErrNoSuchServer) ||
		errors.Is(err, ErrNotEnoughSrvs) || errors.Is(err, simnet.ErrUnreachable)
}

// runAttempts runs a schedule on a fresh cluster, each read and write
// raced against its deadline by the chain (ReadThen, WriteThen) or,
// with ref, by the process model: a process per try running refRead or
// refWrite. Batches and cleans go through ReadMulti, WriteMulti and
// MarkClean, or refReadMulti, refWriteMulti and refMarkClean. stop > 0 stops the run there, by
// Stop or, with horizon, by the horizon.
func runAttempts(ops []attOp, faults []repFault, lossy bool, seed int64, stop time.Duration, horizon, ref bool, n *refCounts) attOutcome {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	for i := 0; i <= repNodes; i++ {
		net.AddNode("n")
	}
	c := New(net, 0, DefaultConfig())
	for i := 0; i < repNodes; i++ {
		c.AddServer(simnet.NodeID(i), 24<<20)
	}
	if lossy {
		net.SeedFaults(seed)
		net.DegradeLink(0, 1, 1.7, 0.6)
		net.SetPacketLoss(1, 2, 0.3)
		net.SetPacketLoss(2, 3, 0.2)
		net.SetDiskFactor(3, 2.5)
	}
	switch {
	case stop > 0 && horizon:
		env.SetHorizon(stop)
	case stop > 0:
		env.After(stop, env.Stop)
	}
	for _, f := range faults {
		env.After(f.at, func() {
			if f.partition {
				net.Partition(f.a, f.b)
				env.After(f.dur, func() { net.Heal(f.a, f.b) })
				return
			}
			c.Crash(f.node)
			if f.down {
				env.After(f.dur/2, func() { c.RecoverNode(f.node) })
			}
			env.After(f.dur, func() { c.Restart(f.node) })
		})
	}
	out := attOutcome{
		done:    make([]sim.Time, len(ops)),
		errs:    make([][]error, len(ops)),
		answers: make([][]uint64, len(ops)),
	}
	st := &State{Kind: KindFinal, Dirty: true}
	for i, o := range ops {
		out.done[i] = -1
		out.errs[i] = make([]error, len(o.keys))
		out.answers[i] = make([]uint64, len(o.keys))
		env.After(o.at, func() {
			defer func() { out.done[i] = env.Now() }()
			switch o.kind {
			case attReadMulti:
				var res []ReadResult
				if ref {
					res = refReadMulti(c, o.caller, o.keys, n)
				} else {
					res = c.ReadMulti(o.caller, o.keys)
				}
				for k, r := range res {
					out.errs[i][k], out.answers[i][k] = r.Err, r.Meta.Version
				}
				return
			case attWriteMulti:
				items := make([]WriteItem, len(o.keys))
				for k, key := range o.keys {
					items[k] = WriteItem{Key: key, Blob: Synthetic(o.sizes[k]), State: *st}
				}
				var res []WriteResult
				if ref {
					res = refWriteMulti(c, o.caller, items, o.caller, n)
				} else {
					res = c.WriteMulti(o.caller, items, o.caller)
				}
				for k, r := range res {
					out.errs[i][k], out.answers[i][k] = r.Err, r.Version
				}
				return
			case attMarkClean:
				if ref {
					out.errs[i][0] = refMarkClean(c, o.caller, o.keys[0])
				} else {
					out.errs[i][0] = c.MarkClean(o.caller, o.keys[0])
				}
				return
			}
			var last attTry
			for try := 0; try <= attRetries; try++ {
				if try > 0 {
					env.Sleep(attBackoff << (try - 1))
				}
				k := len(out.tries)
				out.tries = append(out.tries, attTry{op: i, start: env.Now(), end: -1})
				reply := sim.NewFuture[attTry](env)
				answer := func(err error, version uint64) {
					t := &out.tries[k]
					t.end, t.err, t.version = env.Now(), err, version
					if t.timedOut && o.kind == attWrite && err == nil {
						out.timedOut++
					}
					reply.Set(*t)
				}
				key, blob := o.keys[0], Synthetic(o.sizes[0])
				switch {
				case ref && o.kind == attWrite:
					env.Go(func() { r := refWrite(c, o.caller, key, blob, st, o.caller, n); answer(r.Err, r.Version) })
				case ref:
					env.Go(func() { r := refRead(c, o.caller, key, n); answer(r.Err, r.Meta.Version) })
				case o.kind == attWrite:
					c.WriteThen(o.caller, key, blob, st, o.caller, func(r WriteResult) { answer(r.Err, r.Version) })
				default:
					c.ReadThen(o.caller, key, func(r ReadResult) { answer(r.Err, r.Meta.Version) })
				}
				var ok bool
				if last, ok = reply.WaitTimeout(attTimeout); !ok {
					out.tries[k].timedOut = true
					last = attTry{err: errTimedOut}
					continue
				}
				if !unavailable(last.err) {
					break
				}
			}
			out.errs[i][0], out.answers[i][0] = last.err, last.version
		})
	}
	env.Run()
	out.events = env.Events()
	for i := 0; i < repNodes; i++ {
		s := c.Server(simnet.NodeID(i))
		masters := make(map[string]Meta)
		for k, o := range s.log.byKey() {
			masters[k] = o.meta
		}
		out.masters = append(out.masters, masters)
		out.backups = append(out.backups, versions(s.backups))
		out.disk = append(out.disk, versions(s.disk))
		dirty := make(map[string]bool)
		for name, t := range map[string]table[object]{"buffered ": s.backups, "flushed ": s.disk} {
			for k, r := range t.byKey() {
				if r.meta.State.Dirty {
					dirty[name+k] = true
				}
			}
		}
		out.dirty = append(out.dirty, dirty)
	}
	out.places = c.places.byKey()
	return out
}

// errTimedOut marks a try whose deadline won.
var errTimedOut = errors.New("attempt timed out")

// diff describes the first difference between two outcomes of one
// schedule, or returns "" when they are identical.
func (got attOutcome) diff(want attOutcome, ops []attOp) string {
	for i := range ops {
		if got.done[i] != want.done[i] {
			return fmt.Sprintf("op %d (%d on %v at %v from %d) completed at %v, the process model at %v",
				i, ops[i].kind, ops[i].keys, ops[i].at, ops[i].caller, got.done[i], want.done[i])
		}
		for k := range ops[i].keys {
			if !errors.Is(got.errs[i][k], want.errs[i][k]) || got.answers[i][k] != want.answers[i][k] {
				return fmt.Sprintf("op %d key %d: %v, version %d; the process model %v, version %d",
					i, k, got.errs[i][k], got.answers[i][k], want.errs[i][k], want.answers[i][k])
			}
		}
	}
	if len(got.tries) != len(want.tries) {
		return fmt.Sprintf("%d tries, the process model %d", len(got.tries), len(want.tries))
	}
	for k, g := range got.tries {
		w := want.tries[k]
		if g.op != w.op || g.start != w.start || g.end != w.end || g.timedOut != w.timedOut ||
			!errors.Is(g.err, w.err) || g.version != w.version {
			return fmt.Sprintf("try %d of op %d: %+v, the process model %+v", k, g.op, g, w)
		}
	}
	if got.events != want.events {
		return fmt.Sprintf("%d events dispatched, the process model %d", got.events, want.events)
	}
	for s := range got.masters {
		if !maps.Equal(got.masters[s], want.masters[s]) {
			return fmt.Sprintf("server %d masters %v, the process model %v", s, got.masters[s], want.masters[s])
		}
		if !maps.Equal(got.backups[s], want.backups[s]) {
			return fmt.Sprintf("server %d buffers %v, the process model %v", s, got.backups[s], want.backups[s])
		}
		if !maps.Equal(got.disk[s], want.disk[s]) {
			return fmt.Sprintf("server %d flushed %v, the process model %v", s, got.disk[s], want.disk[s])
		}
		if !maps.Equal(got.dirty[s], want.dirty[s]) {
			return fmt.Sprintf("server %d dirty replicas %v, the process model %v", s, got.dirty[s], want.dirty[s])
		}
	}
	if !maps.Equal(got.places, want.places) {
		return "the coordinator's placements differ from the process model's"
	}
	return ""
}

// TestAttemptMatchesProcessModel: a read or write raced against its
// deadline as a chain of continuations (ReadThen, WriteThen and their
// read and write groups) ends every try at the instant, with the error
// and the answer, that the process model does: a process per try
// running the op as it was written before, one process per backup
// share and per disk flush. Every op completes at the same instant,
// the same number of events is dispatched, and the same versions land
// in every master, RAM buffer and disk, with the same placements; the
// batch paths run beside them, a chain per master against a process
// per master. Twenty seeded schedules of 200 concurrent callers on ten
// keys run on both, each under twelve crashes (half of them recovered
// by the coordinator), node restarts and partitions, with a deadline
// short enough that tries time out and retry while their ops run on;
// every second seed adds a degraded link, two lossy ones and a slow
// disk, and every fifth is stopped mid-run by Stop, every fifth by the
// horizon. Each schedule then runs again with forty MarkCleans of the
// same keys among its callers, on both, which must clear the same
// Dirty bits on every master and replica.
func TestAttemptMatchesProcessModel(t *testing.T) {
	const seeds, ops = 20, 200
	var reached refCounts
	var timedOutLanded, tries, timeouts int
	cleans := make(map[string]int) // completed MarkCleans by outcome
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched, faults := attSchedule(rng, ops)
		lossy := seed%2 == 0
		var stop time.Duration
		if seed%5 == 0 || seed%5 == 3 {
			stop = 5*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond)))
		}
		horizon := seed%5 == 3
		got := runAttempts(sched, faults, lossy, seed, stop, horizon, false, nil)
		want := runAttempts(sched, faults, lossy, seed, stop, horizon, true, &reached)
		if d := got.diff(want, sched); d != "" {
			t.Fatalf("seed %d (lossy %v, stop %v, horizon %v): %s", seed, lossy, stop, horizon, d)
		}
		timedOutLanded += got.timedOut
		tries += len(got.tries)
		for _, try := range got.tries {
			if try.timedOut {
				timeouts++
			}
		}
		withClean := withCleans(rng, sched, 40)
		got = runAttempts(withClean, faults, lossy, seed, stop, horizon, false, nil)
		want = runAttempts(withClean, faults, lossy, seed, stop, horizon, true, &refCounts{})
		if d := got.diff(want, withClean); d != "" {
			t.Fatalf("seed %d with cleans (lossy %v, stop %v, horizon %v): %s", seed, lossy, stop, horizon, d)
		}
		for i, o := range withClean {
			if o.kind == attMarkClean && got.done[i] >= 0 {
				cleans[errKind(got.errs[i][0])]++
			}
		}
	}
	t.Logf("%d tries, %d timed out, %d of them writes that landed; %d ops met a master crashed at serve time, %d shares a backup crashed at buffering, %d flushes a replica a restart dropped",
		tries, timeouts, timedOutLanded, reached.crashedAtServe, reached.crashedAtBuffer, reached.droppedFlushes)
	if timedOutLanded == 0 || reached.crashedAtServe == 0 {
		t.Errorf("the schedules never timed out a write that still landed (%d) or crashed a master at serve time (%d)",
			timedOutLanded, reached.crashedAtServe)
	}
	t.Logf("MarkCleans by outcome: %v", cleans)
	if cleans["ok"] == 0 || cleans["not found"] == 0 || cleans["unreachable"] == 0 {
		t.Errorf("the schedules never cleaned a key, missed one and lost a clean's round all at once: %v", cleans)
	}
}

// errKind names err's class for the tally of outcomes.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "not found"
	case errors.Is(err, simnet.ErrUnreachable):
		return "unreachable"
	}
	return err.Error()
}
