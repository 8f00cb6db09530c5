package store_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/store/conformance"
)

// newKV builds a 4-node RAMCloud-like cluster.
func newKV(env *sim.Env) (*kvstore.Cluster, simnet.NodeID) {
	net := simnet.New(env)
	for i := 0; i < 4; i++ {
		net.AddNode("n")
	}
	c := kvstore.New(net, 0, kvstore.DefaultConfig())
	for i := 0; i < 4; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
	}
	return c, 1
}

// mkKV is newKV as a conformance.Factory.
func mkKV(env *sim.Env) (store.Backend, simnet.NodeID) { return newKV(env) }

// mkPassthrough builds the direct-RSDS cache-off backend.
func mkPassthrough(env *sim.Env) (store.Backend, simnet.NodeID) {
	net := simnet.New(env)
	net.AddNode("client")
	storage := net.AddNode("storage").ID
	rsds := objstore.New(net, storage, objstore.SwiftProfile())
	return store.NewPassthrough(rsds), 0
}

func TestKVClusterConformance(t *testing.T) {
	conformance.Run(t, mkKV, conformance.Traits{CacheTier: true})
}

func TestPassthroughConformance(t *testing.T) {
	conformance.Run(t, mkPassthrough, conformance.Traits{CacheTier: false})
}

// The full proxy middleware stack over the cluster must still honor
// the backend contract — middleware is transparent.
func TestMiddlewareStackConformance(t *testing.T) {
	mk := func(env *sim.Env) (store.Backend, simnet.NodeID) {
		inner, caller := newKV(env)
		res := store.NewResilient(env, inner, store.DefaultResilienceConfig())
		ch := store.NewChunked(res, store.DefaultChunkSize)
		return store.NewInstrumented(env, ch), caller
	}
	conformance.Run(t, mk, conformance.Traits{CacheTier: true})
}

// TestChunkedStriping checks the striping middleware end to end:
// oversized writes land as "key#i" stripes of KindChunk, reads
// reassemble, the object's State rides the manifest, MarkClean and
// Evict act only at the manifest's version, and Evict drops every
// stripe. A striped
// overwrite leaves nothing of the old object in the cache: not the
// surplus stripes of a longer one, not a plain copy, and not the old
// object when the overwrite fails.
func TestChunkedStriping(t *testing.T) {
	env := sim.NewEnv(1)
	kv, caller := newKV(env)
	ch := store.NewChunked(kv, store.DefaultChunkSize)
	env.Go(func() {
		const size = 25 << 20 // 4 stripes of 8 MB
		st := store.State{Kind: kvstore.KindFinal, Dirty: true, PersistVersion: 7}
		if _, err := ch.Write(caller, "big/obj", store.Blob{Size: size}, &st, caller); err != nil {
			t.Fatalf("chunked write: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, ok := kv.MasterOf(fmt.Sprintf("big/obj#%d", i)); !ok {
				t.Fatalf("stripe %d not placed", i)
			}
		}
		blob, meta, err := ch.Read(caller, "big/obj")
		if err != nil || blob.Size != size {
			t.Fatalf("chunked read: %v size %d", err, blob.Size)
		}
		if meta.State != st {
			t.Fatalf("manifest state %+v, want %+v", meta.State, st)
		}
		if _, stripe, err := kv.Read(caller, "big/obj#0"); err != nil || stripe.State != (store.State{Kind: kvstore.KindChunk}) {
			t.Fatalf("stripe state %+v, err %v: want a clean KindChunk", stripe.State, err)
		}
		// A fence at another version than the manifest's changes nothing.
		stale := meta.Version - 1
		if err := errors.Join(ch.MarkClean(caller, "big/obj", stale), ch.Evict("big/obj", stale)); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("MarkClean and Evict at a stale version: %v, want ErrNotFound", err)
		}
		if _, m, err := ch.Read(caller, "big/obj"); err != nil || m.State != st {
			t.Fatalf("after the stale fences: err %v, state %+v, want %+v", err, m.State, st)
		}
		if err := ch.MarkClean(caller, "big/obj", meta.Version); err != nil {
			t.Fatalf("mark clean: %v", err)
		}
		st.Dirty = false
		if _, meta, _ = ch.Read(caller, "big/obj"); meta.State != st {
			t.Fatalf("manifest state after MarkClean %+v, want %+v", meta.State, st)
		}
		if err := ch.Evict("big/obj", meta.Version); err != nil {
			t.Fatalf("evict: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, ok := kv.MasterOf(fmt.Sprintf("big/obj#%d", i)); ok {
				t.Fatalf("stripe %d survived evict", i)
			}
		}
		if _, _, err := ch.Read(caller, "big/obj"); err == nil {
			t.Fatal("read after evict must fail")
		}

		write := func(key string, size int64) error {
			_, err := ch.Write(caller, key, store.Blob{Size: size}, nil, caller)
			return err
		}
		// 4 stripes, then 2: a#2 and a#3 must go.
		if err := errors.Join(write("a", 25<<20), write("a", 12<<20)); err != nil {
			t.Fatalf("striped overwrite: %v", err)
		}
		for i := 2; i < 4; i++ {
			if _, ok := kv.MasterOf(fmt.Sprintf("a#%d", i)); ok {
				t.Errorf("stripe a#%d outlived a shorter overwrite", i)
			}
		}
		// A plain object, then a striped one: once the manifest is
		// evicted, the plain copy must not be served.
		if err := errors.Join(write("b", 1<<20), write("b", 25<<20), ch.Evict("b", 0)); err != nil {
			t.Fatalf("plain then striped: %v", err)
		}
		if blob, meta, err := ch.Read(caller, "b"); err == nil {
			t.Errorf("read after evict served a stale %d-byte object of %+v", blob.Size, meta.State)
		}
		// A striped write that fails takes the old object with it.
		if err := write("c", 1<<20); err != nil {
			t.Fatalf("plain write: %v", err)
		}
		for i := simnet.NodeID(0); i < 4; i++ {
			kv.SetMemoryLimit(i, 4<<20)
		}
		if err := write("c", 25<<20); err == nil {
			t.Fatal("striped write into 4 MB servers succeeded")
		}
		if blob, _, err := ch.Read(caller, "c"); err == nil {
			t.Errorf("failed overwrite left the old %d-byte object readable", blob.Size)
		}
		for _, k := range []string{"a", "b", "c"} {
			ch.Evict(k, 0)
		}
		if used := kv.TotalUsed(); used != 0 {
			t.Errorf("%d bytes stay mastered after every key is evicted", used)
		}
	})
	env.Run()
}

// scriptedReads is a ChainBackend whose i-th ReadThen (from 1) answers
// after delays[i-1] with a blob of size i, so that every answer names
// the call that produced it. It implements nothing else.
type scriptedReads struct {
	store.ChainBackend
	env    *sim.Env
	delays []time.Duration
	calls  int
}

func (s *scriptedReads) ReadThen(_ simnet.NodeID, _ string, done func(store.ReadResult)) {
	s.calls++
	n := s.calls
	s.env.Then(s.delays[n-1], func() { done(store.ReadResult{Blob: store.Blob{Size: int64(n)}}) })
}

// TestResilientRecyclesOnlyAnsweredCalls: the first Read's attempt
// runs past its deadline and answers late, while the retry has already
// answered and a later Read is waiting on its own attempt. A call
// record goes back for reuse only once both its ends are done, the
// caller's wait and the chain, so the late answer reaches nobody: the
// retry and the later Read each get their own.
func TestResilientRecyclesOnlyAnsweredCalls(t *testing.T) {
	env := sim.NewEnv(1)
	// Call 1 answers at 250 ms, after its 100 ms deadline; call 2, the
	// retry after a 5 ms ±20 % backoff, at about 106 ms; call 3, the
	// later Read, at 290 ms.
	inner := &scriptedReads{env: env, delays: []time.Duration{250 * time.Millisecond, time.Millisecond, 90 * time.Millisecond}}
	r := store.NewResilient(env, inner, store.DefaultResilienceConfig())
	var first, later int64
	env.Go(func() {
		blob, _, err := r.Read(0, "k")
		if err != nil {
			t.Errorf("first read: %v", err)
		}
		first = blob.Size
		env.Sleep(200*time.Millisecond - env.Now())
		blob, _, err = r.Read(0, "k")
		if err != nil {
			t.Errorf("later read: %v", err)
		}
		later = blob.Size
	})
	env.Run()
	if first != 2 {
		t.Errorf("first Read got call %d's answer, want its retry's (2)", first)
	}
	if later != 3 {
		t.Errorf("later Read got call %d's answer, want its own (3)", later)
	}
	if st := r.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Errorf("stats %+v, want 1 timeout and 1 retry", st)
	}
}

// TestHealthyResilientOpsSpawnNothing: on a healthy cluster a
// Resilient Read or Write spawns no process. Each attempt starts the
// op's chain of continuations and parks its caller once, on the
// answer, with a deadline.
func TestHealthyResilientOpsSpawnNothing(t *testing.T) {
	env := sim.NewEnv(1)
	kv, caller := newKV(env)
	r := store.NewResilient(env, kv, store.DefaultResilienceConfig())
	env.Go(func() {
		for _, op := range []struct {
			name string
			do   func() error
		}{
			{"write of a new key", func() error {
				_, err := r.Write(caller, "k", store.Blob{Size: 64 << 10}, nil, caller)
				return err
			}},
			{"overwrite", func() error {
				_, err := r.Write(caller, "k", store.Blob{Size: 32 << 10}, &store.State{Dirty: true}, caller)
				return err
			}},
			{"hit", func() error {
				_, _, err := r.Read(caller, "k")
				return err
			}},
			{"remote hit", func() error {
				_, _, err := r.Read(caller+1, "k")
				return err
			}},
			{"miss", func() error {
				if _, _, err := r.Read(caller, "none"); !errors.Is(err, store.ErrNotFound) {
					return fmt.Errorf("err %v, want ErrNotFound", err)
				}
				return nil
			}},
		} {
			before := env.Spawned()
			if err := op.do(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if n := env.Spawned() - before; n != 0 {
				t.Errorf("%s spawned %d processes, want 0", op.name, n)
			}
		}
	})
	env.Run()
	if st := r.Stats(); st != (store.ResilienceStats{}) {
		t.Errorf("stats %+v on a healthy cluster, want none", st)
	}
}
