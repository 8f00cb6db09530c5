package kvstore

import (
	"errors"
	"fmt"
	"testing"

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
			{Key: "obj/huge", Blob: Synthetic(c.cfg.MaxObjectSize + 1)},
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
		w := w
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
