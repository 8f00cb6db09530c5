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

	"ofc/internal/kvstore"
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
		{"State", func(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID) {
			testState(t, env, b, caller, traits)
		}},
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

func mustWrite(t *testing.T, b store.Backend, caller simnet.NodeID, key string, size int64, st *store.State) uint64 {
	t.Helper()
	v, err := b.Write(caller, key, store.Blob{Size: size}, st, caller)
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

// testState: a cache tier reads back the State an object was written
// with, and MarkClean clears only its Dirty bit, of the version it
// names or, at 0, of whatever copy is there; at a stale version it
// reports ErrNotFound and clears nothing. A durable tier keeps no
// State, so it reads the zero one, and MarkClean succeeds.
func testState(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID, traits Traits) {
	st := store.State{Kind: kvstore.KindFinal, Dirty: true, PersistVersion: 7}
	old := mustWrite(t, b, caller, "c/t", 1<<10, &st)
	check := func(step string, err, wantErr error, want store.State) {
		t.Helper()
		if !traits.CacheTier {
			wantErr, want = nil, store.State{}
		}
		if _, meta, rerr := b.Read(caller, "c/t"); !errors.Is(err, wantErr) || rerr != nil || meta.State != want {
			t.Fatalf("after %s: err %v (want %v), read err %v, state %+v (want %+v)", step, err, wantErr, rerr, meta.State, want)
		}
	}
	for _, at := range []string{"its version", "version 0"} {
		st.Dirty = true
		v := mustWrite(t, b, caller, "c/t", 1<<10, &st)
		check("write", nil, nil, st)
		check("MarkClean at a stale version", b.MarkClean(caller, "c/t", old), store.ErrNotFound, st)
		if at == "version 0" {
			v = 0
		}
		st.Dirty = false
		check("MarkClean at "+at, b.MarkClean(caller, "c/t", v), nil, st)
	}
}

// testEvict: a cache tier forgets an object evicted at its version or
// at 0, and an Evict at a stale version reports ErrNotFound and drops
// nothing. A durable tier drops nothing.
func testEvict(t *testing.T, env *sim.Env, b store.Backend, caller simnet.NodeID, traits Traits) {
	var gone error // a read after an eviction
	if traits.CacheTier {
		gone = store.ErrNotFound
	}
	old := mustWrite(t, b, caller, "c/e", 1<<10, nil)
	cur := mustWrite(t, b, caller, "c/e", 1<<10, nil)
	if err := b.Evict("c/e", old); !errors.Is(err, gone) {
		t.Fatalf("evict at a stale version: err %v, want %v", err, gone)
	}
	for _, v := range []uint64{cur, 0} {
		if _, _, err := b.Read(caller, "c/e"); err != nil {
			t.Fatalf("read before evict at %d: %v", v, err)
		}
		if err := b.Evict("c/e", v); err != nil {
			t.Fatalf("evict at %d: %v", v, err)
		}
		if _, _, err := b.Read(caller, "c/e"); !errors.Is(err, gone) {
			t.Fatalf("read after evict at %d: err %v, want %v", v, err, gone)
		}
		mustWrite(t, b, caller, "c/e", 1<<10, nil)
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
		{Key: "c/w1", Blob: store.Blob{Size: 2 << 10}, State: store.State{Kind: kvstore.KindIntermediate}},
	}
	if bb, ok := b.(store.BatchBackend); ok {
		for i, r := range bb.WriteMulti(caller, items, caller) {
			if r.Err != nil {
				t.Fatalf("batch write %d: %v", i, r.Err)
			}
		}
	} else {
		for _, it := range items {
			mustWrite(t, b, caller, it.Key, it.Blob.Size, &it.State)
		}
	}
	for i, it := range items {
		blob, _, err := b.Read(caller, it.Key)
		if err != nil || blob.Size != it.Blob.Size {
			t.Fatalf("read back %d: %v size %d", i, err, blob.Size)
		}
	}
}
