package store

import (
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// mkResilient builds a bare Resilient for white-box breaker/backoff
// tests (no inner backend needed; only the breaker machinery runs).
func mkResilient(env *sim.Env, cfg ResilienceConfig) *Resilient {
	return NewResilient(env, nil, cfg)
}

// TestBreakerTransitions walks the per-server circuit breaker through
// its state machine: closed → open at the threshold (counted as one
// trip), half-open probe after the cooldown, probe failure re-opens
// without a second trip, probe success closes.
func TestBreakerTransitions(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultResilienceConfig()
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Second
	r := mkResilient(env, cfg)
	node := simnet.NodeID(7)

	type step struct {
		name      string
		act       func() // report or clock advance
		wantAllow bool
		wantOpen  bool
		wantTrips int64
	}
	steps := []step{
		{"fail 1", func() { r.report(node, false) }, true, false, 0},
		{"fail 2", func() { r.report(node, false) }, true, false, 0},
		{"fail 3 trips", func() { r.report(node, false) }, false, true, 1},
		{"still open", func() { env.Sleep(cfg.BreakerCooldown / 2) }, false, true, 1},
		{"cooldown elapses (half-open)", func() { env.Sleep(cfg.BreakerCooldown) }, true, false, 1},
		{"probe fails, re-opens, no new trip", func() { r.report(node, false) }, false, true, 1},
		{"second cooldown", func() { env.Sleep(2 * cfg.BreakerCooldown) }, true, false, 1},
		{"probe succeeds, closes", func() { r.report(node, true) }, true, false, 1},
		{"stays closed", func() { r.report(node, false) }, true, false, 1},
	}
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

// TestBackoffBounds checks the exponential schedule: doubling from
// RetryBase, capped at RetryMax, and jitter within ±Jitter.
func TestBackoffBounds(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultResilienceConfig()
	cfg.RetryBase = 5 * time.Millisecond
	cfg.RetryMax = 50 * time.Millisecond

	cfg.Jitter = 0
	r := mkResilient(env, cfg)
	exact := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 5 * time.Millisecond},
		{2, 10 * time.Millisecond},
		{3, 20 * time.Millisecond},
		{4, 40 * time.Millisecond},
		{5, 50 * time.Millisecond}, // capped
		{9, 50 * time.Millisecond},
	}
	for _, c := range exact {
		if got := r.backoff(c.attempt); got != c.want {
			t.Errorf("backoff(%d)=%v, want %v", c.attempt, got, c.want)
		}
	}

	cfg.Jitter = 0.2
	r = mkResilient(env, cfg)
	for attempt := 1; attempt <= 8; attempt++ {
		base := cfg.RetryBase << (attempt - 1)
		if base > cfg.RetryMax {
			base = cfg.RetryMax
		}
		lo := time.Duration(float64(base) * (1 - cfg.Jitter))
		hi := time.Duration(float64(base) * (1 + cfg.Jitter))
		for i := 0; i < 20; i++ {
			d := r.backoff(attempt)
			if d < lo || d > hi {
				t.Fatalf("backoff(%d)=%v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}
