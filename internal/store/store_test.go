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

// mkKV builds a 4-node RAMCloud-like cluster backend.
func mkKV(env *sim.Env) (store.Backend, simnet.NodeID) {
	net := simnet.New(env, simnet.DefaultConfig())
	for i := 0; i < 4; i++ {
		net.AddNode("n")
	}
	c := kvstore.New(net, 0, kvstore.DefaultConfig())
	for i := 0; i < 4; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
	}
	return c, 1
}

// mkPassthrough builds the direct-RSDS cache-off backend.
func mkPassthrough(env *sim.Env) (store.Backend, simnet.NodeID) {
	net := simnet.New(env, simnet.DefaultConfig())
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
		inner, caller := mkKV(env)
		res := store.NewResilient(env, inner, store.DefaultResilienceConfig())
		ch := store.NewChunked(res, store.DefaultChunkSize)
		return store.NewInstrumented(env, ch), caller
	}
	conformance.Run(t, mk, conformance.Traits{CacheTier: true})
}

func TestCapabilityDiscovery(t *testing.T) {
	env := sim.NewEnv(1)
	kv, _ := mkKV(env)
	stack := store.NewInstrumented(env, store.NewChunked(store.NewResilient(env, kv, store.DefaultResilienceConfig()), 0))
	if pv, ok := store.PlacementViewOf(stack); !ok || pv == nil {
		t.Fatal("placement view not found through middleware chain")
	}
	if mv, ok := store.MemoryViewOf(stack); !ok || mv == nil {
		t.Fatal("memory view not found through middleware chain")
	}
	if store.IsDurable(stack) {
		t.Fatal("cache cluster must not be durable")
	}

	pt, _ := mkPassthrough(env)
	if !store.IsDurable(pt) {
		t.Fatal("passthrough must be durable")
	}
	if _, ok := store.PlacementViewOf(pt); ok {
		t.Fatal("passthrough must not expose a placement view")
	}
	if _, ok := store.MemoryViewOf(pt); ok {
		t.Fatal("passthrough must not expose a memory view")
	}
}

// TestChunkedStriping checks the striping middleware end to end:
// oversized writes land as "key#i" stripes, reads reassemble, logical
// tags ride the manifest, and Evict drops every stripe.
func TestChunkedStriping(t *testing.T) {
	env := sim.NewEnv(1)
	kvb, caller := mkKV(env)
	kv := kvb.(*kvstore.Cluster)
	ch := store.NewChunked(kvb, store.DefaultChunkSize)
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
	})
	env.Run()
}

// scriptedReads is a Backend whose i-th Read (from 1) answers after
// delays[i-1] with a blob of size i, so that every answer names the
// call that produced it. It implements nothing else.
type scriptedReads struct {
	store.Backend
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
	kvb, caller := mkKV(env)
	kv := kvb.(*kvstore.Cluster)
	cfg := store.DefaultResilienceConfig()
	cfg.MaxRetries = 0
	res := store.NewResilient(env, kvb, cfg)
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
