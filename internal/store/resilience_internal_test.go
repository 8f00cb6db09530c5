package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// mkResilient builds a bare Resilient for white-box breaker/backoff
// tests (no inner backend needed; only the breaker machinery runs).
func mkResilient(env *sim.Env) *Resilient {
	return NewResilient(env, nil, DefaultResilienceConfig())
}

// TestBreakerTransitions walks the per-server circuit breaker through
// its state machine: closed → open at the threshold (counted as one
// trip), half-open probe after the cooldown, probe failure re-opens
// without a second trip, probe success closes.
func TestBreakerTransitions(t *testing.T) {
	env := sim.NewEnv(1)
	r := mkResilient(env)
	node := simnet.NodeID(7)
	fail := func() { r.report(node, false) }

	type step struct {
		name      string
		act       func() // report or clock advance
		wantAllow bool
		wantOpen  bool
		wantTrips int64
	}
	var steps []step
	for i := 1; i < breakerThreshold; i++ {
		steps = append(steps, step{fmt.Sprintf("fail %d", i), fail, true, false, 0})
	}
	steps = append(steps, []step{
		{"threshold failure trips", fail, false, true, 1},
		{"still open", func() { env.Sleep(breakerCooldown / 2) }, false, true, 1},
		{"cooldown elapses (half-open)", func() { env.Sleep(breakerCooldown) }, true, false, 1},
		{"probe fails, re-opens, no new trip", fail, false, true, 1},
		{"second cooldown", func() { env.Sleep(2 * breakerCooldown) }, true, false, 1},
		{"probe succeeds, closes", func() { r.report(node, true) }, true, false, 1},
		{"stays closed", fail, true, false, 1},
	}...)
	env.Go(func() {
		for _, s := range steps {
			s.act()
			if got := r.allow(node); got != s.wantAllow {
				t.Errorf("%s: allow=%v, want %v", s.name, got, s.wantAllow)
			}
			if _, open := r.BreakerState(node); open != s.wantOpen {
				t.Errorf("%s: open=%v, want %v", s.name, open, s.wantOpen)
			}
			if trips := r.Stats().BreakerTrips; trips != s.wantTrips {
				t.Errorf("%s: trips=%d, want %d", s.name, trips, s.wantTrips)
			}
		}
		// An unknown node is always allowed.
		if !r.allow(99) {
			t.Error("fresh node not allowed")
		}
	})
	env.Run()
}

// TestBackoffBounds checks the exponential schedule: each re-attempt's
// backoff lies within ±jitter of retryBase doubled per attempt, capped
// at retryMax, and is exactly that base scaled by the layer's next
// random draw, replayed here from a twin source.
func TestBackoffBounds(t *testing.T) {
	env := sim.NewEnv(1)
	r := mkResilient(env)
	r.rng = rand.New(rand.NewSource(7))
	twin := rand.New(rand.NewSource(7))
	bases := []struct {
		attempt int
		base    time.Duration
	}{
		{1, 5 * time.Millisecond},
		{2, 10 * time.Millisecond},
		{3, 20 * time.Millisecond},
		{4, 40 * time.Millisecond},
		{5, 50 * time.Millisecond}, // capped
		{9, 50 * time.Millisecond},
	}
	if bases[0].base != retryBase || bases[len(bases)-1].base != retryMax {
		t.Fatalf("table assumes retryBase 5ms and retryMax 50ms, have %v and %v", retryBase, retryMax)
	}
	for _, c := range bases {
		lo := time.Duration(float64(c.base) * (1 - jitter))
		hi := time.Duration(float64(c.base) * (1 + jitter))
		for i := 0; i < 20; i++ {
			d := r.backoff(c.attempt)
			if d < lo || d > hi {
				t.Fatalf("backoff(%d)=%v outside [%v, %v]", c.attempt, d, lo, hi)
			}
			if want := time.Duration(float64(c.base) * (1 + jitter*(2*twin.Float64()-1))); d != want {
				t.Fatalf("backoff(%d)=%v, want %v", c.attempt, d, want)
			}
		}
	}
}

// TestResilientBreaker checks the degradation layer standalone: ops
// against a crashed cluster trip the breaker and fail fast. Each Read
// reports its first try and maxRetries re-attempts as failures.
func TestResilientBreaker(t *testing.T) {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	for i := 0; i < 4; i++ {
		net.AddNode("n")
	}
	kv := kvstore.New(net, 0, kvstore.DefaultConfig())
	for i := 0; i < 4; i++ {
		kv.AddServer(simnet.NodeID(i), 1<<30)
	}
	caller := simnet.NodeID(1)
	res := NewResilient(env, kv, DefaultResilienceConfig())
	env.Go(func() {
		if _, err := res.Write(caller, "k", Blob{Size: 1 << 10}, nil, caller); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		master, _ := kv.MasterOf("k")
		for i := 0; i < 4; i++ {
			kv.Crash(simnet.NodeID(i))
		}
		reads := 0
		for failed := 0; failed < breakerThreshold; failed += 1 + maxRetries {
			if _, _, err := res.Read(caller, "k"); err == nil {
				t.Fatal("read against crashed cluster succeeded")
			}
			reads++
		}
		if got := res.Stats().Retries; got != int64(reads*maxRetries) {
			t.Fatalf("retries %d after %d failed reads, want %d each", got, reads, maxRetries)
		}
		if _, open := res.BreakerState(master); !open {
			t.Fatal("breaker did not open after threshold failures")
		}
		if _, _, err := res.Read(caller, "k"); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open breaker: err %v, want ErrBreakerOpen", err)
		}
		if res.Stats().BreakerTrips != 1 {
			t.Fatalf("trips %d, want 1", res.Stats().BreakerTrips)
		}
	})
	env.Run()
}
