package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// testCluster builds a 4-node cluster: node 0 runs the coordinator,
// nodes 0..3 each run a storage server with a 1 GB budget.
func testCluster(env *sim.Env) (*Cluster, *simnet.Network) {
	return testClusterWith(env, DefaultConfig())
}

func testClusterWith(env *sim.Env, cfg Config) (*Cluster, *simnet.Network) {
	net := simnet.New(env)
	for i := 0; i < 4; i++ {
		net.AddNode("n")
	}
	c := New(net, 0, cfg)
	for i := 0; i < 4; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
	}
	return c, net
}

func run(t *testing.T, body func(env *sim.Env, c *Cluster)) {
	t.Helper()
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() { body(env, c) })
	env.Run()
}

func TestWriteReadRoundTrip(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		payload := Synthetic(14)
		ver, err := c.Write(1, "obj/a", payload, &State{Kind: KindIntermediate}, 1)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		if ver == 0 {
			t.Error("version 0")
		}
		blob, meta, err := c.Read(2, "obj/a")
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if blob != payload {
			t.Errorf("blob = %+v, want %+v", blob, payload)
		}
		if meta.Version != ver || meta.Size != payload.Size {
			t.Errorf("meta=%+v", meta)
		}
		if meta.State != (State{Kind: KindIntermediate}) {
			t.Errorf("state=%+v", meta.State)
		}
	})
}

func TestPreferredPlacement(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, err := c.Write(2, "k", Synthetic(1<<20), nil, 2); err != nil {
			t.Fatal(err)
		}
		m, ok := c.MasterOf("k")
		if !ok || m != 2 {
			t.Errorf("master=%v ok=%v, want node 2", m, ok)
		}
	})
}

func TestVersionsIncrease(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		v1, _ := c.Write(1, "k", Synthetic(100), nil, 1)
		v2, _ := c.Write(1, "k", Synthetic(200), nil, 1)
		if v2 <= v1 {
			t.Errorf("v2=%d <= v1=%d", v2, v1)
		}
		_, meta, _ := c.Read(1, "k")
		if meta.Size != 200 || meta.Version != v2 {
			t.Errorf("meta=%+v", meta)
		}
	})
}

func TestReadUpdatesAccessStats(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(10), nil, 1)
		for i := 0; i < 3; i++ {
			env.Sleep(time.Second)
			c.Read(2, "k")
		}
		_, meta, _ := c.Read(2, "k")
		if meta.NAccess != 4 {
			t.Errorf("naccess=%d, want 4", meta.NAccess)
		}
		if meta.LastAccess == 0 {
			t.Error("lastAccess not set")
		}
	})
}

func TestNotFound(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, _, err := c.Read(1, "missing"); !errors.Is(err, ErrNotFound) {
			t.Errorf("err=%v", err)
		}
		if err := c.Evict("missing", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("evict err=%v", err)
		}
	})
}

func TestTooLarge(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, err := c.Write(1, "big", Synthetic(11<<20), nil, 1); !errors.Is(err, ErrTooLarge) {
			t.Errorf("err=%v", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		// Shrink every node and fill each, so placement cannot fall
		// back anywhere; then the next write must fail.
		for i := simnet.NodeID(0); i < 4; i++ {
			c.SetMemoryLimit(i, 1<<20)
		}
		for i := simnet.NodeID(0); i < 4; i++ {
			key := "fill" + string(rune('0'+i))
			if _, err := c.Write(1, key, Synthetic(900<<10), nil, i); err != nil {
				t.Fatalf("fill write %d: %v", i, err)
			}
		}
		if _, err := c.Write(1, "b", Synthetic(900<<10), nil, 1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("err=%v, want ErrNoSpace", err)
		}
	})
}

func TestEvict(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(1<<20), nil, 1)
		if err := c.Evict("k", 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Read(1, "k"); !errors.Is(err, ErrNotFound) {
			t.Errorf("read after evict: %v", err)
		}
		used, _ := c.Server(1).Usage()
		if used != 0 {
			t.Errorf("used=%d", used)
		}
	})
}

func TestReplicationPlacesBackups(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(1<<20), nil, 1)
		replicas := 0
		for i := simnet.NodeID(0); i < 4; i++ {
			s := c.Server(i)
			if _, ok := s.backups.lookupKey("k"); ok {
				replicas++
				if i == 1 {
					t.Error("master also holds a backup replica")
				}
			}
		}
		if replicas != 2 {
			t.Errorf("replicas=%d, want 2", replicas)
		}
	})
}

func TestMigrateToBackupNoTransfer(t *testing.T) {
	env := sim.NewEnv(1)
	c, net := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		sentBefore, _, _, _ := net.Node(1).Stats()
		start := env.Now()
		if err := c.MigrateToBackup("k", 0); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		took := env.Now() - start
		sentAfter, _, _, _ := net.Node(1).Stats()
		if sentAfter-sentBefore > 1024 {
			t.Errorf("old master sent %d payload bytes during promotion", sentAfter-sentBefore)
		}
		m, _ := c.MasterOf("k")
		if m == 1 {
			t.Error("master did not move")
		}
		// Paper: ~0.18 ms for 8 MB.
		if took > 500*time.Microsecond {
			t.Errorf("promotion of 8MB took %v", took)
		}
		// Object still readable, same contents metadata.
		_, meta, err := c.Read(2, "k")
		if err != nil || meta.Size != 8<<20 {
			t.Errorf("read after migration: %v %+v", err, meta)
		}
		// Replication factor preserved: old master now holds a backup.
		s := c.Server(1)
		_, demoted := s.backups.lookupKey("k")
		if !demoted {
			t.Error("old master lost its replica role")
		}
	})
	env.Run()
}

func TestMigrateFullTransfersPayload(t *testing.T) {
	env := sim.NewEnv(1)
	c, net := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		sentBefore, _, _, _ := net.Node(1).Stats()
		if err := c.MigrateFull("k", 3); err != nil {
			t.Fatalf("migrate full: %v", err)
		}
		sentAfter, _, _, _ := net.Node(1).Stats()
		if sentAfter-sentBefore < 8<<20 {
			t.Errorf("full migration moved only %d bytes", sentAfter-sentBefore)
		}
		m, _ := c.MasterOf("k")
		if m != 3 {
			t.Errorf("master=%d, want 3", m)
		}
	})
	env.Run()
}

func TestPromotionTimeMatchesPaper(t *testing.T) {
	// The paper's §7.2.1 migration times are aggregates moved as
	// (max 10 MB) objects; model the aggregate as N promotions of
	// 8 MB objects, as the MigrationSeries experiment does.
	c := New(nil, 0, DefaultConfig())
	cases := []struct {
		mb   int64
		want time.Duration
		tol  time.Duration
	}{
		{8, 180 * time.Microsecond, 100 * time.Microsecond},
		{64, 1200 * time.Microsecond, 400 * time.Microsecond},
		{256, 3800 * time.Microsecond, 800 * time.Microsecond},
		{512, 7500 * time.Microsecond, 1500 * time.Microsecond},
		{1024, 13500 * time.Microsecond, 2000 * time.Microsecond},
	}
	for _, tc := range cases {
		n := tc.mb / 8
		got := time.Duration(n) * c.promotionTime(8<<20)
		diff := got - tc.want
		if diff < 0 {
			diff = -diff
		}
		if diff > tc.tol {
			t.Errorf("promotion of %dMB as 8MB objects=%v, paper %v (tol %v)", tc.mb, got, tc.want, tc.tol)
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		for i := 0; i < 5; i++ {
			key := string(rune('a' + i))
			if _, err := c.Write(1, key, Synthetic(1<<20), nil, 1); err != nil {
				t.Fatal(err)
			}
		}
		c.Crash(1) // the machine is down: the master is unreachable
		if _, _, err := c.Read(2, "a"); !errors.Is(err, simnet.ErrUnreachable) {
			t.Fatalf("read from crashed master: %v", err)
		}
		n := c.RecoverNode(1)
		if n != 5 {
			t.Errorf("recovered %d objects, want 5", n)
		}
		for i := 0; i < 5; i++ {
			key := string(rune('a' + i))
			_, meta, err := c.Read(2, key)
			if err != nil {
				t.Errorf("read %q after recovery: %v", key, err)
			}
			if meta.Size != 1<<20 {
				t.Errorf("size=%d", meta.Size)
			}
			if m, _ := c.MasterOf(key); m == 1 {
				t.Errorf("%q still mastered on crashed node", key)
			}
		}
	})
}

func TestSetMemoryLimitAndUsage(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(3<<20), nil, 1)
		c.SetMemoryLimit(1, 2<<20) // below usage: nothing evicted by itself
		used, limit := c.Server(1).Usage()
		if used != 3<<20 || limit != 2<<20 {
			t.Errorf("used=%d limit=%d", used, limit)
		}
		if _, _, err := c.Read(2, "k"); err != nil {
			t.Errorf("object evicted by SetMemoryLimit: %v", err)
		}
	})
}

// TestWriteWithEveryServerOverLimit: when shrunken grants leave every
// server holding more than its limit, a write of a new key is refused
// for want of space and leaves no placement behind (it used to record
// one with no master, which the router then indexed by).
func TestWriteWithEveryServerOverLimit(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		for i := simnet.NodeID(0); i < 4; i++ {
			c.Write(i, fmt.Sprintf("fill-%d", i), Synthetic(3<<20), nil, i)
			c.SetMemoryLimit(i, 1<<20)
		}
		if _, err := c.Write(1, "new", Synthetic(100), nil, 1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("write with every server over its limit: %v, want ErrNoSpace", err)
		}
		if loc := c.Locate(nil, []string{"new"})[0]; loc.OK {
			t.Errorf("refused write left a placement on node %d", loc.Node)
		}
	})
}

func TestObjectsSnapshot(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "x", Synthetic(100), &State{Kind: KindFinal}, 1)
		c.Write(1, "y", Synthetic(200), nil, 1)
		objs := c.Objects(nil, 1)
		if len(objs) != 2 {
			t.Fatalf("objects=%d", len(objs))
		}
		for _, o := range objs {
			if o.Key == "x" && o.Meta.State.Kind != KindFinal {
				t.Errorf("state lost: %+v", o.Meta)
			}
		}
	})
}

// TestMarkClean: MarkClean clears only the Dirty bit, and a missing key
// is ErrNotFound.
func TestMarkClean(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(10), &State{Kind: KindFinal, Dirty: true, PersistVersion: 7}, 1)
		if err := c.MarkClean(1, "k", 0); err != nil {
			t.Fatal(err)
		}
		_, m, err := c.Read(1, "k")
		if err != nil || m.State != (State{Kind: KindFinal, PersistVersion: 7}) {
			t.Errorf("meta=%+v err=%v", m, err)
		}
		if err := c.MarkClean(1, "missing", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key: err=%v, want ErrNotFound", err)
		}
	})
}

// TestMetaIsSnapshotAcrossSetTag: a Meta from Read or Objects is a
// snapshot. A MarkClean must neither change the State of a Meta a
// caller already holds (the eviction sweep and the memory census read
// Dirty from such snapshots) nor reach another key written with the
// same State.
func TestMetaIsSnapshotAcrossSetTag(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		st := &State{Kind: KindFinal, Dirty: true}
		for _, k := range []string{"a", "b"} {
			if _, err := c.Write(1, k, Synthetic(100), st, 1); err != nil {
				t.Fatal(err)
			}
		}
		_, read, err := c.Read(1, "a")
		if err != nil {
			t.Fatal(err)
		}
		var census Meta
		for _, o := range c.Objects(nil, 1) {
			if o.Key == "a" {
				census = o.Meta
			}
		}
		if err := c.MarkClean(1, "a", 0); err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]Meta{"Read": read, "Objects": census} {
			if !m.State.Dirty {
				t.Errorf("%s before MarkClean now says clean, want the snapshot's dirty", name)
			}
		}
		if _, m, _ := c.Read(1, "a"); m.State.Dirty {
			t.Error("a after MarkClean is still dirty")
		}
		if _, m, _ := c.Read(1, "b"); !m.State.Dirty {
			t.Error("b, written with a's State, was cleaned with it")
		}
	})
}

func TestWriteLatencyScalesWithSize(t *testing.T) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	var small, large time.Duration
	env.Go(func() {
		start := env.Now()
		c.Write(1, "s", Synthetic(1<<10), nil, 2) // remote master
		small = env.Now() - start
		start = env.Now()
		c.Write(1, "l", Synthetic(10<<20), nil, 2)
		large = env.Now() - start
	})
	env.Run()
	if small >= large {
		t.Errorf("small=%v >= large=%v", small, large)
	}
	if small > 2*time.Millisecond {
		t.Errorf("1kB durable write took %v; RAMCloud-class stores are sub-ms", small)
	}
}

// Property: any interleaved sequence of writes to distinct keys keeps
// the books balanced — server usage equals the sum of master-copy
// sizes, and every written object is readable with its latest size.
func TestPropertyUsageAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		env := sim.NewEnv(9)
		c, _ := testCluster(env)
		okAll := true
		env.Go(func() {
			want := map[string]int64{}
			for i, s := range sizes {
				key := string(rune('a' + i%8)) // overwrite some keys
				size := int64(s) + 1
				if _, err := c.Write(1, key, Synthetic(size), nil, simnet.NodeID(i%4)); err != nil {
					okAll = false
					return
				}
				want[key] = size
			}
			var total int64
			for _, sz := range want {
				total += sz
			}
			var used int64
			for i := simnet.NodeID(0); i < 4; i++ {
				u, _ := c.Server(i).Usage()
				used += u
			}
			if used != total {
				okAll = false
				return
			}
			for key, sz := range want {
				_, meta, err := c.Read(2, key)
				if err != nil || meta.Size != sz {
					okAll = false
					return
				}
			}
		})
		env.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: per-key version numbers observed by sequential reads are
// monotonically non-decreasing (single-master linearizable reads).
func TestPropertyMonotonicVersions(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%16) + 2
		env := sim.NewEnv(11)
		c, _ := testCluster(env)
		ok := true
		env.Go(func() {
			var last uint64
			for i := 0; i < n; i++ {
				if _, err := c.Write(1, "k", Synthetic(int64(i)+1), nil, 1); err != nil {
					ok = false
					return
				}
				_, meta, err := c.Read(2, "k")
				if err != nil || meta.Version < last {
					ok = false
					return
				}
				last = meta.Version
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentWritersDistinctKeys(t *testing.T) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	wg := sim.NewWaitGroup(env)
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			key := "k" + string(rune('a'+i))
			_, errs[i] = c.Write(simnet.NodeID(i%4), key, Synthetic(1<<16), nil, simnet.NodeID(i%4))
		})
	}
	env.Go(func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}
		if c.TotalUsed() != 20*(1<<16) {
			t.Errorf("total used=%d", c.TotalUsed())
		}
	})
	env.Run()
}

func TestRecoveryImpossibleWhenBackupsCrashed(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, err := c.Write(1, "k", Synthetic(1<<20), nil, 1); err != nil {
			t.Fatal(err)
		}
		// Crash the master and every backup holder.
		for i := simnet.NodeID(0); i < 4; i++ {
			c.Crash(i)
		}
		if n := c.RecoverNode(1); n != 0 {
			t.Errorf("recovered %d objects with all replicas down", n)
		}
	})
}

func TestMigrateToBackupNeedsRoomAtDest(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		// No backup node has master memory to take the object over.
		for i := simnet.NodeID(0); i < 4; i++ {
			if i != 1 {
				c.SetMemoryLimit(i, 0)
			}
		}
		if err := c.MigrateToBackup("k", 0); !errors.Is(err, ErrNotEnoughSrvs) {
			t.Errorf("err=%v, want ErrNotEnoughSrvs", err)
		}
	})
}

func TestPromotionFromDiskAfterFlush(t *testing.T) {
	// When a backup's buffers are lost (machine restart), promotion
	// still works from the disk copies but pays the disk read.
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(8<<20), nil, 1)
		env.Sleep(time.Second) // let the async flush reach disk
		// Bounce every backup holder: buffers gone, disk kept.
		for i := simnet.NodeID(0); i < 4; i++ {
			if i == 1 {
				continue // keep the master
			}
			c.Crash(i)
			c.Restart(i)
		}
		start := env.Now()
		if err := c.MigrateToBackup("k", 0); err != nil {
			t.Fatalf("migrate from disk: %v", err)
		}
		took := env.Now() - start
		// Disk reload of 8 MB at 500 MB/s ≈ 16 ms ≫ the buffered
		// promotion's ~0.14 ms.
		if took < 10*time.Millisecond {
			t.Errorf("disk-path promotion took %v, expected disk-read cost", took)
		}
		if _, _, err := c.Read(2, "k"); err != nil {
			t.Errorf("read after disk promotion: %v", err)
		}
	})
	env.Run()
}

func TestRestartLosesBufferKeepsDisk(t *testing.T) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		c.Write(1, "k", Synthetic(2<<20), nil, 1)
		env.Sleep(time.Second) // flush
		// Find a backup holder and bounce it.
		var holder simnet.NodeID = -1
		for i := simnet.NodeID(0); i < 4; i++ {
			s := c.Server(i)
			if _, ok := s.disk.lookupKey("k"); ok {
				holder = i
			}
		}
		if holder < 0 {
			t.Fatal("no disk replica found")
		}
		c.Crash(holder)
		c.Restart(holder)
		s := c.Server(holder)
		_, buffered := s.backups.lookupKey("k")
		_, onDisk := s.disk.lookupKey("k")
		if buffered {
			t.Error("buffer survived the restart")
		}
		if !onDisk {
			t.Error("disk copy lost in restart")
		}
		// The restarted node can still be a recovery source: crash the
		// master and recover.
		c.Crash(1)
		if n := c.RecoverNode(1); n != 1 {
			t.Errorf("recovered %d, want 1", n)
		}
		if _, _, err := c.Read(2, "k"); err != nil {
			t.Errorf("read after recovery from restarted node: %v", err)
		}
	})
	env.Run()
}
