package experiments

import "testing"

// TestChaosGracefulDegradation runs the quick chaos drill and checks
// the graceful-degradation contract: every invocation completes, no
// acknowledged final output is lost, the RSDS fallback path actually
// carried traffic while masters were dead, and RAMCloud-style recovery
// ran and was timed.
func TestChaosGracefulDegradation(t *testing.T) {
	_, res := Chaos(1, true)
	if !res.Healthy() {
		t.Errorf("chaos drill unhealthy: failures=%d lost=%d fallbacks=%d/%d recoveries=%d",
			res.Failures, res.LostOutputs, res.FallbackReads, res.FallbackWrites, res.Recoveries)
	}
	if res.Invocations == 0 || res.Outputs != res.Invocations {
		t.Errorf("outputs=%d of %d invocations", res.Outputs, res.Invocations)
	}
	if res.Kills != 2 || res.Restarts != 2 {
		t.Errorf("kills=%d restarts=%d, want 2/2 (quick mode)", res.Kills, res.Restarts)
	}
	if res.FaultyHit >= res.HealthyHit {
		t.Errorf("hit ratio did not dip under faults: healthy=%v faulty=%v", res.HealthyHit, res.FaultyHit)
	}
	// Each proxy hit is counted once, in the window its invocation
	// started in (a local hit is one of the proxy's hits, not a second).
	if got := res.HealthyHits + res.FaultyHits; got != res.ProxyHits {
		t.Errorf("healthy+faulty hits = %d, the proxy counted %d", got, res.ProxyHits)
	}
	if res.RecoveryTime <= 0 || res.LastRecovery <= 0 {
		t.Errorf("recovery not timed: total=%v last=%v", res.RecoveryTime, res.LastRecovery)
	}
	if len(res.Applied) != 4 {
		t.Errorf("applied fault log has %d entries, want 4: %v", len(res.Applied), res.Applied)
	}
}

// TestChaosDeterministic replays the drill with the same seed: the
// rendered report (and hence every metric in it) must be byte-for-byte
// identical — the whole fault schedule runs on the virtual clock.
func TestChaosDeterministic(t *testing.T) {
	tab1, res1 := Chaos(7, true)
	tab2, res2 := Chaos(7, true)
	if s1, s2 := tab1.String(), tab2.String(); s1 != s2 {
		t.Errorf("reports diverge for identical seeds:\n--- run1\n%s\n--- run2\n%s", s1, s2)
	}
	if len(res1.Applied) != len(res2.Applied) {
		t.Fatalf("applied logs diverge: %d vs %d", len(res1.Applied), len(res2.Applied))
	}
	for i := range res1.Applied {
		if res1.Applied[i] != res2.Applied[i] {
			t.Errorf("applied[%d]: %q vs %q", i, res1.Applied[i], res2.Applied[i])
		}
	}
}
