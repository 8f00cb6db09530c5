// Package conformance is the backend contract test: every
// store.Backend implementation — the RAMCloud-like cache cluster, the
// direct-RSDS passthrough, and any future engine — must pass it. The
// suite is parameterized by Traits because the contract legitimately
// differs along one axis: a cache tier forgets evicted objects, a
// durable store does not. The batch cases go through a
// store.BatchBackend's own batch methods, and key by key over a backend
// without them.
package conformance

import (
	"errors"
	"testing"

	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
)

// Traits declare which optional behaviors the backend under test has.
type Traits struct {
	// CacheTier is true when Evict actually drops data (reads after
	// evict miss). Durable backends treat Evict as a no-op.
	CacheTier bool
}

// Factory builds a fresh backend inside env, returning it plus a node
// usable as the caller of operations.
type Factory func(env *sim.Env) (store.Backend, simnet.NodeID)

// Run exercises the Backend contract against mk's backend.
func Run(t *testing.T, mk Factory, traits Traits) {
	t.Helper()
	cases := []struct {
		name string
		body func(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID)
	}{
		{"RoundTrip", testRoundTrip},
		{"MissingKey", testMissingKey},
		{"OverwriteVersions", testOverwriteVersions},
		{"Tags", testTags},
		{"Evict", func(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
			testEvict(t, env, b, caller, traits)
		}},
		{"BatchRead", testBatchRead},
		{"BatchWrite", testBatchWrite},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			b, caller := mk(env)
			env.Go(func() { tc.body(t, env, b, caller) })
			env.Run()
		})
	}
}

func mustWrite(t *testing.T, b store.Backend, caller simnet.NodeID, key string, size int64, tags map[string]string) uint64 {
	t.Helper()
	v, err := b.Write(caller, key, store.Blob{Size: size}, tags, caller)
	if err != nil {
		t.Fatalf("write %s: %v", key, err)
	}
	return v
}

func testRoundTrip(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	mustWrite(t, b, caller, "c/a", 4<<10, nil)
	blob, meta, err := b.Read(caller, "c/a")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if blob.Size != 4<<10 || meta.Size != 4<<10 {
		t.Fatalf("size mismatch: blob %d meta %d", blob.Size, meta.Size)
	}
	if b.MaxObjectSize() <= 0 {
		t.Fatalf("MaxObjectSize must be positive, got %d", b.MaxObjectSize())
	}
}

func testMissingKey(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	if _, _, err := b.Read(caller, "c/none"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("read missing: err %v, want ErrNotFound", err)
	}
}

func testOverwriteVersions(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	v1 := mustWrite(t, b, caller, "c/v", 1<<10, nil)
	v2 := mustWrite(t, b, caller, "c/v", 2<<10, nil)
	if v2 <= v1 {
		t.Fatalf("overwrite version not monotonic: %d then %d", v1, v2)
	}
	blob, _, err := b.Read(caller, "c/v")
	if err != nil || blob.Size != 2<<10 {
		t.Fatalf("read after overwrite: %v size %d", err, blob.Size)
	}
}

func testTags(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	mustWrite(t, b, caller, "c/t", 1<<10, map[string]string{"kind": "final", "dirty": "1"})
	_, meta, err := b.Read(caller, "c/t")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if meta.Tags["kind"] != "final" || meta.Tags["dirty"] != "1" {
		t.Fatalf("write tags not visible: %v", meta.Tags)
	}
	if err := b.SetTag(caller, "c/t", "dirty", "0"); err != nil {
		t.Fatalf("settag: %v", err)
	}
	_, meta, err = b.Read(caller, "c/t")
	if err != nil || meta.Tags["dirty"] != "0" {
		t.Fatalf("settag not visible: %v %v", err, meta.Tags)
	}
}

func testEvict(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID, traits Traits) {
	mustWrite(t, b, caller, "c/e", 1<<10, nil)
	if err := b.Evict("c/e"); err != nil {
		t.Fatalf("evict: %v", err)
	}
	_, _, err := b.Read(caller, "c/e")
	if traits.CacheTier {
		if !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("cache tier: read after evict err %v, want ErrNotFound", err)
		}
	} else if err != nil {
		t.Fatalf("durable tier: evict must not lose data, read err %v", err)
	}
}

func testBatchRead(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	keys := []string{"c/b0", "c/b1", "c/b2", "c/bmissing"}
	for i, k := range keys[:3] {
		mustWrite(t, b, caller, k, int64(1+i)<<10, nil)
	}
	res := make([]store.ReadResult, len(keys))
	if bb, ok := b.(store.BatchBackend); ok {
		res = bb.ReadMulti(caller, keys)
	} else {
		for i, k := range keys {
			res[i].Blob, res[i].Meta, res[i].Err = b.Read(caller, k)
		}
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for i := range keys[:3] {
		if res[i].Err != nil || res[i].Blob.Size != int64(1+i)<<10 {
			t.Fatalf("batch key %d: %v size %d", i, res[i].Err, res[i].Blob.Size)
		}
	}
	if !errors.Is(res[3].Err, store.ErrNotFound) {
		t.Fatalf("batch missing key: err %v, want ErrNotFound", res[3].Err)
	}
}

func testBatchWrite(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
	items := []store.WriteItem{
		{Key: "c/w0", Blob: store.Blob{Size: 1 << 10}},
		{Key: "c/w1", Blob: store.Blob{Size: 2 << 10}, Tags: map[string]string{"kind": "input"}},
	}
	if bb, ok := b.(store.BatchBackend); ok {
		for i, r := range bb.WriteMulti(caller, items, caller) {
			if r.Err != nil {
				t.Fatalf("batch write %d: %v", i, r.Err)
			}
		}
	} else {
		for _, it := range items {
			mustWrite(t, b, caller, it.Key, it.Blob.Size, it.Tags)
		}
	}
	for i, it := range items {
		blob, _, err := b.Read(caller, it.Key)
		if err != nil || blob.Size != it.Blob.Size {
			t.Fatalf("read back %d: %v size %d", i, err, blob.Size)
		}
	}
}
