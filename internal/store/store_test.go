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
// oversized writes land as "key#i" stripes, reads reassemble, logical
// tags ride the manifest, and Evict drops every stripe. A striped
// overwrite leaves nothing of the old object in the cache: not the
// surplus stripes of a longer one, not a plain copy, and not the old
// object when the overwrite fails.
func TestChunkedStriping(t *testing.T) {
	env := sim.NewEnv(1)
	kv, caller := newKV(env)
	ch := store.NewChunked(kv, store.DefaultChunkSize)
	env.Go(func() {
		const size = 25 << 20 // 4 stripes of 8 MB
		tags := map[string]string{"kind": "final", "dirty": "1", "version": "7"}
		if _, err := ch.Write(caller, "big/obj", store.Blob{Size: size}, tags, caller); err != nil {
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
		if meta.Tags["kind"] != "final" || meta.Tags["dirty"] != "1" || meta.Tags["version"] != "7" {
			t.Fatalf("manifest tags wrong: %v", meta.Tags)
		}
		if err := ch.SetTag(caller, "big/obj", "dirty", "0"); err != nil {
			t.Fatalf("settag: %v", err)
		}
		if _, meta, _ = ch.Read(caller, "big/obj"); meta.Tags["dirty"] != "0" {
			t.Fatalf("manifest settag not visible: %v", meta.Tags)
		}
		if err := ch.Evict("big/obj"); err != nil {
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
			_, err := ch.Write(caller, key, store.Blob{Size: size}, map[string]string{"size": fmt.Sprint(size)}, caller)
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
		if err := errors.Join(write("b", 1<<20), write("b", 25<<20), ch.Evict("b")); err != nil {
			t.Fatalf("plain then striped: %v", err)
		}
		if blob, meta, err := ch.Read(caller, "b"); err == nil {
			t.Errorf("read after evict served a stale %d-byte object tagged %v", blob.Size, meta.Tags)
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
			ch.Evict(k)
		}
		if used := kv.TotalUsed(); used != 0 {
			t.Errorf("%d bytes stay mastered after every key is evicted", used)
		}
	})
	env.Run()
}

// scriptedReads is a Backend whose i-th Read (from 1) answers after
// delays[i-1] with a blob of size i, so that every answer names the
// call that produced it. It implements nothing else.
type scriptedReads struct {
	store.BatchBackend
	env    *sim.Env
	delays []time.Duration
	calls  int
}

func (s *scriptedReads) Read(simnet.NodeID, string) (store.Blob, store.Meta, error) {
	s.calls++
	n := s.calls
	s.env.Sleep(s.delays[n-1])
	return store.Blob{Size: int64(n)}, store.Meta{}, nil
}

// TestResilientRecyclesOnlyAnsweredCalls: the first Read's attempt
// parks past OpTimeout and answers late, while the retry has already
// answered and a later Read is waiting on its own attempt. A call
// record goes back for reuse only once answered, so the late answer
// reaches nobody: the retry and the later Read each get their own.
func TestResilientRecyclesOnlyAnsweredCalls(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := store.DefaultResilienceConfig()
	cfg.Jitter = 0
	// Call 1 answers at 250 ms, after its 100 ms deadline; call 2, the
	// retry, at 106 ms; call 3, the later Read, at 290 ms.
	inner := &scriptedReads{env: env, delays: []time.Duration{250 * time.Millisecond, time.Millisecond, 90 * time.Millisecond}}
	r := store.NewResilient(env, inner, cfg)
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

// TestResilientBreaker checks the moved degradation layer standalone:
// ops against a crashed cluster trip the breaker and fail fast.
func TestResilientBreaker(t *testing.T) {
	env := sim.NewEnv(1)
	kv, caller := newKV(env)
	cfg := store.DefaultResilienceConfig()
	cfg.MaxRetries = 0
	res := store.NewResilient(env, kv, cfg)
	env.Go(func() {
		if _, err := res.Write(caller, "k", store.Blob{Size: 1 << 10}, nil, caller); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		master, _ := kv.MasterOf("k")
		for i := 0; i < 4; i++ {
			kv.Crash(simnet.NodeID(i))
		}
		for i := 0; i < cfg.BreakerThreshold; i++ {
			if _, _, err := res.Read(caller, "k"); err == nil {
				t.Fatal("read against crashed cluster succeeded")
			}
		}
		if _, open := res.BreakerState(master); !open {
			t.Fatal("breaker did not open after threshold failures")
		}
		if _, _, err := res.Read(caller, "k"); !errors.Is(err, store.ErrBreakerOpen) {
			t.Fatalf("open breaker: err %v, want ErrBreakerOpen", err)
		}
		if res.Stats().BreakerTrips != 1 {
			t.Fatalf("trips %d, want 1", res.Stats().BreakerTrips)
		}
	})
	env.Run()
}
