package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// TestReadMultiRoundTrip checks batched reads return the same payloads
// and metadata as per-key reads, with per-key ErrNotFound for misses.
func TestReadMultiRoundTrip(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		var keys []string
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("obj/%d", i)
			keys = append(keys, k)
			node := simnet.NodeID(i % 4)
			if _, err := c.Write(node, k, Synthetic(int64(1+i)<<10), nil, node); err != nil {
				t.Fatalf("write %s: %v", k, err)
			}
		}
		keys = append(keys, "obj/missing")
		res := c.ReadMulti(1, keys)
		if len(res) != len(keys) {
			t.Fatalf("got %d results for %d keys", len(res), len(keys))
		}
		for i := 0; i < 12; i++ {
			if res[i].Err != nil {
				t.Fatalf("key %s: %v", keys[i], res[i].Err)
			}
			if want := int64(1+i) << 10; res[i].Blob.Size != want {
				t.Fatalf("key %s: size %d, want %d", keys[i], res[i].Blob.Size, want)
			}
			if res[i].Meta.NAccess != 1 {
				t.Fatalf("key %s: NAccess %d, want 1", keys[i], res[i].Meta.NAccess)
			}
		}
		if !errors.Is(res[12].Err, ErrNotFound) {
			t.Fatalf("missing key: err %v, want ErrNotFound", res[12].Err)
		}
	})
}

// TestReadMultiBatchedRPCs is the acceptance check for batching: a
// ReadMulti of K keys spread over M masters must cost exactly one
// coordinator round-trip and at most one server round-trip per involved
// master — versus K of each for a per-key loop.
func TestReadMultiBatchedRPCs(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		const K = 12
		var keys []string
		masters := make(map[simnet.NodeID]bool)
		for i := 0; i < K; i++ {
			k := fmt.Sprintf("obj/%d", i)
			keys = append(keys, k)
			node := simnet.NodeID(i % 4)
			if _, err := c.Write(node, k, Synthetic(64<<10), nil, node); err != nil {
				t.Fatalf("write: %v", err)
			}
			m, ok := c.MasterOf(k)
			if !ok {
				t.Fatalf("no master for %s", k)
			}
			masters[m] = true
		}

		before := c.Stats()
		res := c.ReadMulti(1, keys)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("key %s: %v", keys[i], r.Err)
			}
		}
		after := c.Stats()
		if got := after.CoordRPCs - before.CoordRPCs; got != 1 {
			t.Fatalf("ReadMulti cost %d coordinator RPCs, want 1", got)
		}
		if got := after.ServerRPCs - before.ServerRPCs; got > int64(len(masters)) {
			t.Fatalf("ReadMulti cost %d server RPCs for %d masters, want <= %d",
				got, len(masters), len(masters))
		}

		// Per-key loop, for contrast: K coordinator and K server RPCs.
		before = after
		for _, k := range keys {
			if _, _, err := c.Read(1, k); err != nil {
				t.Fatalf("read %s: %v", k, err)
			}
		}
		after = c.Stats()
		if got := after.CoordRPCs - before.CoordRPCs; got != K {
			t.Fatalf("per-key loop cost %d coordinator RPCs, want %d", got, K)
		}
		if got := after.ServerRPCs - before.ServerRPCs; got != K {
			t.Fatalf("per-key loop cost %d server RPCs, want %d", got, K)
		}
	})
}

// TestWriteMultiDurable checks batched writes commit with the same
// durability contract as Write: once acked, every object survives a
// master crash via backup promotion.
func TestWriteMultiDurable(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		const K = 8
		items := make([]WriteItem, K)
		for i := range items {
			items[i] = WriteItem{
				Key:  fmt.Sprintf("obj/%d", i),
				Blob: Synthetic(int64(1+i) << 10),
				Tags: map[string]string{"dirty": "1"},
			}
		}
		before := c.Stats()
		res := c.WriteMulti(1, items, 1)
		after := c.Stats()
		if got := after.CoordRPCs - before.CoordRPCs; got != 1 {
			t.Fatalf("WriteMulti cost %d coordinator RPCs, want 1", got)
		}
		seen := make(map[uint64]bool)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("item %d: %v", i, r.Err)
			}
			if r.Version == 0 || seen[r.Version] {
				t.Fatalf("item %d: bad version %d", i, r.Version)
			}
			seen[r.Version] = true
		}

		// All masters landed on the preferred node; crash it and recover.
		master, ok := c.MasterOf("obj/0")
		if !ok {
			t.Fatal("no master for obj/0")
		}
		c.Crash(master)
		if n := c.RecoverNode(master); n != K {
			t.Fatalf("recovered %d objects, want %d", n, K)
		}
		for i, it := range items {
			blob, meta, err := c.Read(2, it.Key)
			if err != nil {
				t.Fatalf("post-recovery read %s: %v", it.Key, err)
			}
			if blob.Size != items[i].Blob.Size {
				t.Fatalf("%s: size %d, want %d", it.Key, blob.Size, items[i].Blob.Size)
			}
			if meta.Tags["dirty"] != "1" {
				t.Fatalf("%s: dirty tag lost in recovery", it.Key)
			}
		}
	})
}

// TestWriteMultiOverwriteAndNoSpace checks per-item failure isolation:
// an oversized or unplaceable item fails alone while the rest of the
// batch commits, and overwrites refresh the coordinator's size record.
func TestWriteMultiOverwriteAndNoSpace(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, err := c.Write(1, "obj/a", Synthetic(4<<10), nil, 1); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		items := []WriteItem{
			{Key: "obj/a", Blob: Synthetic(32 << 10)}, // overwrite
			{Key: "obj/b", Blob: Synthetic(8 << 10)},  // new
			{Key: "obj/huge", Blob: Synthetic(maxObjectSize + 1)},
		}
		res := c.WriteMulti(1, items, 1)
		if res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("good items failed: %v %v", res[0].Err, res[1].Err)
		}
		if !errors.Is(res[2].Err, ErrTooLarge) {
			t.Fatalf("oversized item: err %v, want ErrTooLarge", res[2].Err)
		}
		if _, ok := c.MasterOf("obj/huge"); ok {
			t.Fatal("failed item left a placement behind")
		}
		locs := c.Locate([]string{"obj/a", "obj/b"})
		if !locs[0].OK || locs[0].Size != 32<<10 {
			t.Fatalf("overwrite did not refresh placement size: %+v", locs[0])
		}
		if !locs[1].OK || locs[1].Size != 8<<10 {
			t.Fatalf("new item placement size wrong: %+v", locs[1])
		}
	})
}

// TestCoordinatorCoherentUnderInterleaving drives the coordinator from
// many interleaved sim processes — writes, batched reads, evictions,
// migrations and scheduler-side lookups over an overlapping keyspace —
// and checks the placement map against the servers afterwards.
func TestCoordinatorCoherentUnderInterleaving(t *testing.T) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	const workers = 8
	for w := 0; w < workers; w++ {
		env.Go(func() {
			node := simnet.NodeID(w % 4)
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("shared/%d", (w+i)%24)
				switch i % 6 {
				case 0, 1:
					c.Write(node, key, Synthetic(16<<10), nil, node)
				case 2:
					c.Read(node, key)
				case 3:
					batch := []string{key, fmt.Sprintf("shared/%d", (w+i+7)%24)}
					c.ReadMulti(node, batch)
				case 4:
					if i%12 == 4 {
						c.Evict(key)
					} else {
						c.MigrateToBackup(key)
					}
				case 5:
					items := []WriteItem{
						{Key: key, Blob: Synthetic(8 << 10)},
						{Key: fmt.Sprintf("priv/%d/%d", w, i), Blob: Synthetic(4 << 10)},
					}
					c.WriteMulti(node, items, node)
				}
				c.Locate([]string{key})
				c.MasterOf(key)
			}
		})
	}
	env.Run()
	// The cluster must still be coherent: every surviving placement
	// resolves to a live master copy.
	for key, p := range c.places {
		s := c.Server(p.master)
		if s == nil {
			t.Fatalf("%s placed on unknown server %d", key, p.master)
		}
		if _, found := s.log.get(key); !found {
			t.Fatalf("%s placed on %d but master copy missing", key, p.master)
		}
	}
}

// TestSingleKeyIsBatchOfOne runs each case on two identically seeded
// clusters, once through Write/Read and once through a one-key
// WriteMulti/ReadMulti, and requires the same outcome: error, version,
// virtual completion time, cluster counters, every server's log
// accounting and the key's placement. Each case stages one place where
// two copies of the protocol once disagreed. A speculative placement on
// a node with no server cannot be staged: no virtual time passes
// between place and the master lookup.
func TestSingleKeyIsBatchOfOne(t *testing.T) {
	const key = "k"
	for _, tc := range []struct {
		name              string
		stage             func(env *sim.Env, c *Cluster, net *simnet.Network)
		read              bool
		caller, preferred simnet.NodeID
		size              int64
	}{
		{name: "new key", caller: 1, preferred: 2, size: 64 << 10},
		{
			name: "read remote hit", read: true, caller: 1,
			stage: func(env *sim.Env, c *Cluster, net *simnet.Network) {
				c.Write(2, key, Synthetic(64<<10), nil, 2)
			},
		},
		{
			// The master crashes while the payload is in flight: the
			// placement this write made stays.
			name: "master crashed", caller: 1, preferred: 2, size: 1 << 20,
			stage: func(env *sim.Env, c *Cluster, net *simnet.Network) {
				env.Go(func() {
					for i := 0; i < 10000; i++ {
						if m, ok := c.MasterOf(key); ok {
							c.Crash(m)
							return
						}
						env.Sleep(time.Microsecond)
					}
				})
			},
		},
		{
			// The master rejects the write for space: its log cleaner
			// does not run, although dead bytes put it over budget.
			name: "rejected for space", caller: 1, preferred: 1, size: 100 << 10,
			stage: func(env *sim.Env, c *Cluster, net *simnet.Network) {
				c.Write(1, key, Synthetic(48<<10), nil, 1)
				c.Write(1, key, Synthetic(48<<10), nil, 1)
				c.SetMemoryLimit(1, 64<<10)
			},
		},
		{
			// A placed key its master no longer holds: the overwrite does
			// not refresh the coordinator's size record.
			name: "overwrite lost at master", caller: 1, preferred: 1, size: 32 << 10,
			stage: loseAtMaster(key),
		},
		{
			// The same key read: the miss at the master ships nothing back.
			name: "read lost at master", read: true, caller: 2,
			stage: loseAtMaster(key),
		},
		{
			// Backups fail in the opposite order to their placement: the
			// first backup's error is reported, not the first to arrive.
			name: "backup errors", caller: 0, preferred: 0, size: 1 << 20,
			stage: func(env *sim.Env, c *Cluster, net *simnet.Network) {
				c.Write(0, key, Synthetic(1<<20), nil, 0)
				p := c.places[key]
				c.Crash(p.backups[0])          // fails after the payload lands
				net.Partition(0, p.backups[1]) // fails after the detection delay
			},
		},
		{
			// Replication fails after the master logged a new object: it
			// keeps its placement, so Evict and Delete can reach its bytes.
			name: "replication failed", caller: 0, preferred: 0, size: 16 << 10,
			stage: func(env *sim.Env, c *Cluster, net *simnet.Network) {
				for b := simnet.NodeID(1); b < 4; b++ {
					net.Partition(0, b)
				}
			},
		},
	} {
		type state struct {
			err     error
			version uint64
			done    sim.Time
			stats   ClusterStats
			logs    [4][4]int64
			loc     Location
		}
		observe := func(batch bool) state {
			env := sim.NewEnv(1)
			c, net := testClusterWith(env, DefaultConfig())
			var st state
			env.Go(func() {
				if tc.stage != nil {
					tc.stage(env, c, net)
				}
				switch {
				case tc.read && batch:
					r := c.ReadMulti(tc.caller, []string{key})[0]
					st.err, st.version = r.Err, r.Meta.Version
				case tc.read:
					_, meta, err := c.Read(tc.caller, key)
					st.err, st.version = err, meta.Version
				case batch:
					r := c.WriteMulti(tc.caller, []WriteItem{{Key: key, Blob: Synthetic(tc.size)}}, tc.preferred)[0]
					st.err, st.version = r.Err, r.Version
				default:
					st.version, st.err = c.Write(tc.caller, key, Synthetic(tc.size), nil, tc.preferred)
				}
				st.done = env.Now()
			})
			env.Run()
			st.stats = c.Stats()
			for n := range st.logs {
				s := c.Server(simnet.NodeID(n))
				st.logs[n][0], st.logs[n][1], st.logs[n][2], st.logs[n][3] = s.LogStats()
			}
			st.loc = c.Locate([]string{key})[0]
			return st
		}
		one, batch := observe(false), observe(true)
		if !errors.Is(one.err, batch.err) || !errors.Is(batch.err, one.err) {
			t.Errorf("%s: error %v one key, %v as a batch", tc.name, one.err, batch.err)
		}
		one.err, batch.err = nil, nil
		if one != batch {
			t.Errorf("%s:\n one key  %+v\n as batch %+v", tc.name, one, batch)
		}
	}
}

// loseAtMaster writes key and then drops it from its master's log
// behind the coordinator's back, leaving the placement in place.
func loseAtMaster(key string) func(env *sim.Env, c *Cluster, net *simnet.Network) {
	return func(env *sim.Env, c *Cluster, net *simnet.Network) {
		c.Write(1, key, Synthetic(16<<10), nil, 1)
		m, _ := c.MasterOf(key)
		s := c.Server(m)
		s.log.delete(key)
	}
}

// BenchmarkReadMultiBatched measures the host cost of fetching 16 keys
// in one batched call (1 coordinator + ≤4 server round-trips).
func BenchmarkReadMultiBatched(b *testing.B) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
			node := simnet.NodeID(i % 4)
			if _, err := c.Write(node, keys[i], Synthetic(64<<10), nil, node); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range c.ReadMulti(1, keys) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	env.Run()
}

// BenchmarkReadMultiPerKey is the same 16-key fetch as a per-key loop
// (16 coordinator + 16 server round-trips), the pre-batching shape.
func BenchmarkReadMultiPerKey(b *testing.B) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
			node := simnet.NodeID(i % 4)
			if _, err := c.Write(node, keys[i], Synthetic(64<<10), nil, node); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, _, err := c.Read(1, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	env.Run()
}

// writeBatch is 16 64 KB items whose keys are already mastered across
// the four servers, so every write is a replicated overwrite.
func writeBatch(b *testing.B, c *Cluster) []WriteItem {
	items := make([]WriteItem, 16)
	for i := range items {
		items[i] = WriteItem{Key: fmt.Sprintf("k%d", i), Blob: Synthetic(64 << 10)}
		node := simnet.NodeID(i % 4)
		if _, err := c.Write(node, items[i].Key, items[i].Blob, nil, node); err != nil {
			b.Fatal(err)
		}
	}
	return items
}

// BenchmarkWriteMultiBatched measures the host cost of storing 16 keys
// in one batched call (1 coordinator round-trip, then one bulk transfer
// per master and one replica share per backup).
func BenchmarkWriteMultiBatched(b *testing.B) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		items := writeBatch(b, c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range c.WriteMulti(1, items, 1) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	env.Run()
}

// BenchmarkWriteMultiPerKey is the same 16-key store as a per-key loop,
// each Write a one-item batch through the same server-side step.
func BenchmarkWriteMultiPerKey(b *testing.B) {
	env := sim.NewEnv(1)
	c, _ := testCluster(env)
	env.Go(func() {
		items := writeBatch(b, c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, err := c.Write(1, it.Key, it.Blob, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	env.Run()
}
