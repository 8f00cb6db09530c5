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

// refShare is one backup's share of a replication written with
// processes, and how it ended.
type refShare struct {
	node simnet.NodeID
	err  error
}

// refCounts tallies what the process model's schedules reached.
type refCounts struct {
	crashedAtBuffer int // shares whose backup crashed between payload arrival and buffering
	droppedFlushes  int // flushes whose replica a restart dropped meanwhile
}

// refReplicate is the replication phase as it was written with one
// process per backup share, spawned in first-seen order, and a wait
// group the writer parks on.
func refReplicate(c *Cluster, master simnet.NodeID, acc []acceptedItem, n *refCounts) []refShare {
	env := c.env()
	var shares []refShare
	for _, a := range acc {
		for _, b := range a.backups {
			if !slices.ContainsFunc(shares, func(s refShare) bool { return s.node == b }) {
				shares = append(shares, refShare{node: b})
			}
		}
	}
	wg := sim.NewWaitGroup(env)
	for k := range shares {
		sh := &shares[k]
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			sh.err = refReplicateShare(c, master, sh.node, acc, n)
		})
	}
	wg.Wait()
	return shares
}

// refReplicateShare is one share as a process: one bulk transfer in,
// the RAM-buffer delay, the crash check and install, one process per
// disk flush, one ack back.
func refReplicateShare(c *Cluster, master, backup simnet.NodeID, acc []acceptedItem, n *refCounts) error {
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
	if err := c.net.TryTransfer(master, backup, bytes+controlMsgSize); err != nil {
		return err
	}
	env.Sleep(c.memCopyTime(bytes))
	if bs.node.Down() {
		n.crashedAtBuffer++
		return ErrCrashed
	}
	for _, a := range acc {
		if slices.Contains(a.backups, backup) {
			bs.backups[a.key] = replica{blob: a.blob, meta: a.meta}
		}
	}
	for _, a := range acc {
		if !slices.Contains(a.backups, backup) {
			continue
		}
		key, size, version := a.key, a.blob.Size, a.meta.Version
		env.Go(func() {
			bs.node.DiskWrite(size)
			if cur, ok := bs.backups[key]; ok && cur.meta.Version == version {
				bs.disk[key] = cur
			} else if !ok {
				n.droppedFlushes++
			}
		})
	}
	return c.net.TryTransfer(backup, master, controlMsgSize)
}

// repOp is one writer of a replication schedule: at `at` it ships items
// from caller to master, which accepts them all, replicates them and
// acks, as writeGroup does past its crash and space checks.
type repOp struct {
	at             time.Duration
	caller, master simnet.NodeID
	items          []acceptedItem
}

// repFault is one fault of a schedule: at `at` node crashes (and, with
// down, drops off the fabric) or the link a–b is cut, and dur later the
// node restarts or the link heals.
type repFault struct {
	at, dur   time.Duration
	node      simnet.NodeID
	down      bool
	partition bool
	a, b      simnet.NodeID
}

// repNodes fabric nodes carry storage servers; one more node has none,
// so that a backup without a server is reachable by the schedules.
const repNodes = 5

// repSchedule draws ops writers and their faults from rng. Continuous
// schedules draw instants to the nanosecond and sizes to the byte; grid
// schedules draw both from a few round values, so events share instants
// all the time. Versions follow start order, and keys come from a small
// set, so overlapping writes of one key race their flushes.
func repSchedule(rng *rand.Rand, ops int, grid bool) ([]repOp, []repFault) {
	const window = 40 * time.Millisecond
	instant := func() time.Duration {
		if grid {
			return time.Duration(rng.Intn(int(window/(10*time.Microsecond)))) * 10 * time.Microsecond
		}
		return time.Duration(rng.Int63n(int64(window)))
	}
	size := func() int64 {
		if grid {
			return []int64{12500, 62500, 1250000}[rng.Intn(3)]
		}
		return 1 + rng.Int63n(2<<20)
	}
	out := make([]repOp, ops)
	for i := range out {
		o := &out[i]
		o.at = instant()
		o.caller = simnet.NodeID(rng.Intn(repNodes))
		o.master = simnet.NodeID(rng.Intn(repNodes))
		for k := 1 + rng.Intn(3); k > 0; k-- {
			var backups []simnet.NodeID
			for nb := rng.Intn(3); len(backups) < nb; {
				b := simnet.NodeID(rng.Intn(repNodes + 1)) // repNodes hosts no server
				if b != o.master && !slices.Contains(backups, b) {
					backups = append(backups, b)
				}
			}
			sz := size()
			o.items = append(o.items, acceptedItem{
				key: fmt.Sprintf("k%d", rng.Intn(8)), blob: Synthetic(sz),
				meta: Meta{Size: sz}, backups: backups,
			})
		}
	}
	slices.SortStableFunc(out, func(a, b repOp) int { return int(a.at - b.at) })
	var ver uint64
	for i := range out {
		for k := range out[i].items {
			ver++
			out[i].items[k].meta.Version = ver
		}
	}
	faults := make([]repFault, 12)
	for i := range faults {
		f := &faults[i]
		f.at = instant()
		f.dur = time.Duration(1+rng.Intn(4000)) * time.Microsecond
		if f.partition = rng.Intn(3) == 0; f.partition {
			f.a = simnet.NodeID(rng.Intn(repNodes))
			f.b = (f.a + 1 + simnet.NodeID(rng.Intn(repNodes-1))) % repNodes
		} else {
			f.node = simnet.NodeID(rng.Intn(repNodes))
			f.down = rng.Intn(2) == 0
		}
	}
	return out, faults
}

// repOutcome is what a run of a schedule leaves: each writer's
// completion instant (-1: never started) and per-item errors, each
// server's buffered and flushed replica versions, and a fingerprint of
// the flushed ones every 20 µs of the run, which shows when each flush
// completed.
type repOutcome struct {
	done    []sim.Time
	errs    [][]error
	backups []map[string]uint64
	disk    []map[string]uint64
	flushed []uint64
}

// runReplication runs a schedule on a fresh cluster, replicating
// through rounds or, with ref, through the process model. stop > 0
// stops the run there, by Stop or, with horizon, by the horizon.
func runReplication(ops []repOp, faults []repFault, lossy bool, seed int64, stop time.Duration, horizon, ref bool, n *refCounts) repOutcome {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	for i := 0; i <= repNodes; i++ {
		net.AddNode("n")
	}
	c := New(net, 0, DefaultConfig())
	for i := 0; i < repNodes; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
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
			net.SetNodeDown(f.node, f.down)
			env.After(f.dur, func() {
				net.SetNodeDown(f.node, false)
				c.Restart(f.node)
			})
		})
	}
	out := repOutcome{done: make([]sim.Time, len(ops)), errs: make([][]error, len(ops))}
	env.Every(20*time.Microsecond, func() bool {
		var f uint64
		for i := 0; i < repNodes; i++ {
			for k, r := range c.Server(simnet.NodeID(i)).disk {
				f += (uint64(i)<<40 | uint64(k[1])<<32 | r.meta.Version) * 0x9E3779B97F4A7C15
			}
		}
		out.flushed = append(out.flushed, f)
		return env.Now() < 60*time.Millisecond
	})
	for i, o := range ops {
		out.done[i] = -1
		env.After(o.at, func() {
			errs := make([]error, len(o.items))
			defer func() { out.errs[i], out.done[i] = errs, env.Now() }()
			var total int64
			for _, a := range o.items {
				total += a.blob.Size
			}
			if err := net.TryTransfer(o.caller, o.master, total+controlMsgSize); err != nil {
				for k := range errs {
					errs[k] = err
				}
				return
			}
			env.Sleep(time.Duration(len(o.items))*serveOverhead + c.memCopyTime(total))
			var errOf func(b simnet.NodeID) error
			if ref {
				shares := refReplicate(c, o.master, o.items, n)
				errOf = func(b simnet.NodeID) error {
					return shares[slices.IndexFunc(shares, func(s refShare) bool { return s.node == b })].err
				}
			} else {
				r := c.newRound(o.master)
				defer c.recycleRound(r)
				r.acc = append(r.acc, o.items...)
				r.replicate()
				errOf = func(b simnet.NodeID) error { return r.shareOf(b).err }
			}
			ackErr := net.TryTransfer(o.master, o.caller, controlMsgSize)
			for k, a := range o.items {
				errs[k] = ackErr
				for _, b := range a.backups {
					if e := errOf(b); e != nil {
						errs[k] = e
						break
					}
				}
			}
		})
	}
	env.Run()
	for i := 0; i < repNodes; i++ {
		s := c.Server(simnet.NodeID(i))
		versions := func(m map[string]replica) map[string]uint64 {
			v := make(map[string]uint64, len(m))
			for k, r := range m {
				v[k] = r.meta.Version
			}
			return v
		}
		out.backups = append(out.backups, versions(s.backups))
		out.disk = append(out.disk, versions(s.disk))
	}
	return out
}

// diff describes the first difference between two outcomes of one
// schedule, or returns "" when they are identical.
func (got repOutcome) diff(want repOutcome, ops []repOp) string {
	for i := range ops {
		if got.done[i] != want.done[i] {
			return fmt.Sprintf("writer %d (start %v, master %d, %d items) completed at %v, the process model at %v",
				i, ops[i].at, ops[i].master, len(ops[i].items), got.done[i], want.done[i])
		}
		for k := range got.errs[i] {
			if !errors.Is(got.errs[i][k], want.errs[i][k]) {
				return fmt.Sprintf("writer %d item %d: error %v, the process model %v", i, k, got.errs[i][k], want.errs[i][k])
			}
		}
	}
	if slices.Compare(got.flushed, want.flushed) != 0 {
		return "the disks' contents differ from the process model's during the run"
	}
	for s := range got.backups {
		if !maps.Equal(got.backups[s], want.backups[s]) {
			return fmt.Sprintf("server %d buffers %v, the process model %v", s, got.backups[s], want.backups[s])
		}
		if !maps.Equal(got.disk[s], want.disk[s]) {
			return fmt.Sprintf("server %d flushed %v, the process model %v", s, got.disk[s], want.disk[s])
		}
	}
	return ""
}

// TestReplicationMatchesProcessModel: a replication round, each share a
// chain of continuations with pooled disk flushes, ends every write at
// the instant, with the errors and the buffered and flushed replicas,
// that the process model it replaced does: one process per share, one
// per flush, the writer parked on a wait group. Twenty seeded schedules
// of 300 concurrent writers of 1–3 items of random sizes run on both,
// each under twelve crashes, node failures and partitions; every
// second seed adds a degraded link, two lossy ones (retransmission
// rounds) and a slow disk, and every fifth is stopped mid-run by Stop,
// every fifth by the horizon. On grid schedules, where events share
// their nanosecond all the time, the number of writers whose outcome
// differs is logged; on continuous ones none may.
func TestReplicationMatchesProcessModel(t *testing.T) {
	const seeds, ops = 20, 300
	var reached refCounts
	ties, tieSeeds := 0, 0
	for _, grid := range []bool{false, true} {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sched, faults := repSchedule(rng, ops, grid)
			lossy := seed%2 == 0
			var stop time.Duration
			if seed%5 == 0 || seed%5 == 3 {
				stop = 5*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond)))
			}
			horizon := seed%5 == 3
			got := runReplication(sched, faults, lossy, seed, stop, horizon, false, nil)
			want := runReplication(sched, faults, lossy, seed, stop, horizon, true, &reached)
			d := got.diff(want, sched)
			switch {
			case d == "":
			case !grid:
				t.Fatalf("seed %d (lossy %v, stop %v, horizon %v): %s", seed, lossy, stop, horizon, d)
			default:
				t.Logf("grid seed %d: %s", seed, d)
				for i := range sched {
					if got.done[i] != want.done[i] {
						ties++
					}
				}
				tieSeeds++
			}
		}
	}
	t.Logf("grid schedules: %d of %d completions differ from the process model, on %d of %d seeds; %d shares met a backup crashed at buffering, %d flushes a replica a restart dropped",
		ties, seeds*ops, tieSeeds, seeds, reached.crashedAtBuffer, reached.droppedFlushes)
	if reached.crashedAtBuffer == 0 || reached.droppedFlushes == 0 {
		t.Errorf("the schedules never crashed a backup between arrival and buffering (%d) or restarted one under a pending flush (%d)",
			reached.crashedAtBuffer, reached.droppedFlushes)
	}
}

// TestHealthyWriteSpawnsNoProcess: a replicated single-key Write on a
// healthy cluster parks its caller and spawns nothing: the replication
// round and its disk flushes are continuations.
func TestHealthyWriteSpawnsNoProcess(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		for i := 0; i < 3; i++ { // a new key, then overwrites
			before := env.Spawned()
			if _, err := c.Write(1, "k", Synthetic(64<<10), nil, 1); err != nil {
				t.Fatal(err)
			}
			if n := env.Spawned() - before; n != 0 {
				t.Errorf("write %d spawned %d processes, want 0", i, n)
			}
		}
		env.Sleep(time.Second) // the flushes complete
		p := c.places["k"]
		for _, b := range p.backups {
			if _, ok := c.Server(b).disk["k"]; !ok {
				t.Errorf("backup %d never flushed k", b)
			}
		}
	})
}
