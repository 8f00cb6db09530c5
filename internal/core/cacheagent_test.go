package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
)

// TestReclaimFailureWrapsErrReclaim pins the reclaim failure contract:
// every failure path returns an error matching core.ErrReclaim via
// errors.Is and bumps ReclaimFailures exactly once per failed call.
func TestReclaimFailureWrapsErrReclaim(t *testing.T) {
	sys := newSystem(1)
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())
	sys.Env.Go(func() {
		inv.SetCacheGrant(64 << 20)

		// Need exceeds the whole grant: fails before touching data.
		_, err := agent.Reclaim(128 << 20)
		if !errors.Is(err, ErrReclaim) {
			t.Errorf("need>grant: err=%v, want ErrReclaim match", err)
		}
		if got := agent.Metrics().ReclaimFailures; got != 1 {
			t.Errorf("ReclaimFailures=%d after one failure, want 1", got)
		}

		// A second failure counts once more — no double counting.
		_, err = agent.Reclaim(1 << 30)
		if !errors.Is(err, ErrReclaim) {
			t.Errorf("second failure: err=%v", err)
		}
		if got := agent.Metrics().ReclaimFailures; got != 2 {
			t.Errorf("ReclaimFailures=%d after two failures, want 2", got)
		}

		// The governor's no-agent error is part of the same family.
		if _, gerr := sys.Gov.Reclaim(9999, 1<<20); !errors.Is(gerr, ErrReclaim) {
			t.Errorf("governor no-agent: err=%v, want ErrReclaim match", gerr)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

// TestReclaimFailsOnDirtyResidue drives the partial-free failure path:
// the grant is large enough, but the cached bytes are all dirty (their
// write-backs are asynchronous), so the synchronous reclaim cannot free
// enough and must fail — once — with an ErrReclaim-wrapped error.
func TestReclaimFailsOnDirtyResidue(t *testing.T) {
	sys := newSystem(2)
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())
	sys.Env.Go(func() {
		node := inv.Node()
		inv.SetCacheGrant(64 << 20)
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("dirty/%d", i)
			if _, err := sys.KV.Write(node, key, kvstore.Synthetic(10<<20),
				&kvstore.State{Kind: kvstore.KindFinal, Dirty: true}, node); err != nil {
				t.Fatalf("stage dirty object: %v", err)
			}
		}
		_, err := agent.Reclaim(32 << 20)
		if !errors.Is(err, ErrReclaim) {
			t.Errorf("dirty residue: err=%v, want ErrReclaim match", err)
		}
		if got := agent.Metrics().ReclaimFailures; got != 1 {
			t.Errorf("ReclaimFailures=%d, want exactly 1", got)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

// TestConcurrentReclaimAndGrantShrink races reclaims against grant
// churn (concurrent SetCacheGrant shrinks and Grows) under -race, and
// checks the accounting invariant holds regardless of interleaving:
// ReclaimFailures equals exactly the number of Reclaim calls that
// returned an error, and every error matches ErrReclaim.
func TestConcurrentReclaimAndGrantShrink(t *testing.T) {
	sys := newSystem(3)
	inv := sys.Platform.Invokers()[0]
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, DefaultCacheAgentConfig())

	var mu sync.Mutex
	var failed int64
	sys.Env.Go(func() {
		node := inv.Node()
		inv.SetCacheGrant(256 << 20)
		for i := 0; i < 8; i++ {
			sys.KV.Write(node, fmt.Sprintf("in/%d", i), kvstore.Synthetic(4<<20),
				&kvstore.State{Kind: kvstore.KindInput}, node)
		}
		wg := sim.NewWaitGroup(sys.Env)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			sys.Env.Go(func() {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					if _, err := agent.Reclaim(16 << 20); err != nil {
						if !errors.Is(err, ErrReclaim) {
							t.Errorf("reclaim error %v does not match ErrReclaim", err)
						}
						mu.Lock()
						failed++
						mu.Unlock()
					}
				}
			})
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			sys.Env.Go(func() {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					inv.SetCacheGrant(inv.CacheGrant() / 2)
					agent.Grow()
				}
			})
		}
		wg.Wait()
		sys.Env.Stop()
	})
	sys.Env.Run()

	mu.Lock()
	defer mu.Unlock()
	if got := agent.Metrics().ReclaimFailures; got != failed {
		t.Errorf("ReclaimFailures=%d, but %d Reclaim calls returned an error", got, failed)
	}
}
