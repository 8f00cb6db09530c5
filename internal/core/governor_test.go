package core

import (
	"errors"
	"fmt"
	"testing"

	"ofc/internal/kvstore"
	"ofc/internal/memctl"
)

// TestGovernorMultiNodeReclaimFanOut drives Reclaim through the
// governor across a mixed fleet: a healthy node with reclaimable
// cache, a zero-slack node whose grant cannot cover the need, and an
// unknown node with no agent at all. Each edge must fail (or succeed)
// independently — one node's poverty must not leak into another's
// accounting.
func TestGovernorMultiNodeReclaimFanOut(t *testing.T) {
	sys := newSystem(5)
	invs := sys.Platform.Invokers()
	rich := NewCacheAgent(sys.Env, invs[0], sys.KV, sys.RC, DefaultCacheAgentConfig())
	poor := NewCacheAgent(sys.Env, invs[1], sys.KV, sys.RC, DefaultCacheAgentConfig())
	gov := NewGovernor()
	gov.Add(rich)
	gov.Add(poor)

	sys.Env.Go(func() {
		richNode, poorNode := invs[0].Node(), invs[1].Node()
		// Rich node: 64 MB grant holding clean final outputs.
		invs[0].SetCacheGrant(64 << 20)
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("rich/%d", i)
			if _, err := sys.KV.Write(richNode, key, kvstore.Blob{Size: 4 << 20},
				&kvstore.State{Kind: kvstore.KindFinal}, richNode); err != nil {
				t.Fatalf("seed write: %v", err)
			}
		}
		// Poor node: zero grant — any need exceeds it.

		if _, err := gov.Reclaim(richNode, 16<<20); err != nil {
			t.Errorf("rich node reclaim failed: %v", err)
		}
		if _, err := gov.Reclaim(poorNode, 1<<20); !errors.Is(err, ErrReclaim) {
			t.Errorf("zero-slack node: err=%v, want ErrReclaim match", err)
		}
		if _, err := gov.Reclaim(9999, 1<<20); !errors.Is(err, ErrReclaim) {
			t.Errorf("unknown node: err=%v, want ErrReclaim match", err)
		}

		// Failure accounting stays per node: only the poor agent
		// recorded one, the governor's unknown-node error touched no
		// agent.
		if got := rich.Metrics().ReclaimFailures; got != 0 {
			t.Errorf("rich ReclaimFailures=%d, want 0", got)
		}
		if got := poor.Metrics().ReclaimFailures; got != 1 {
			t.Errorf("poor ReclaimFailures=%d, want 1", got)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}

// TestAgentPolicySwap pins that a non-default policy spec actually
// reaches the agent: an LRU agent's discretionary sweep ignores the
// §6.3 criteria and trims to its watermark instead.
func TestAgentPolicySwap(t *testing.T) {
	sys := newSystem(7)
	inv := sys.Platform.Invokers()[0]
	cfg := DefaultCacheAgentConfig()
	cfg.Policy = memctl.Spec{Eviction: "lru", Slack: "static"}
	agent := NewCacheAgent(sys.Env, inv, sys.KV, sys.RC, cfg)
	sys.Env.Go(func() {
		node := inv.Node()
		inv.SetCacheGrant(16 << 20)
		// Fill past the 90% watermark with cold objects.
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("cold/%d", i)
			if _, err := sys.KV.Write(node, key, kvstore.Blob{Size: 1 << 20},
				&kvstore.State{Kind: kvstore.KindInput}, node); err != nil {
				t.Fatalf("seed write: %v", err)
			}
		}
		used, limit := sys.KV.Usage(node)
		if float64(used) <= 0.9*float64(limit) {
			t.Fatalf("setup: usage %d not above watermark of %d", used, limit)
		}
		agent.periodicEviction()
		used2, _ := sys.KV.Usage(node)
		if float64(used2) > 0.9*float64(limit) {
			t.Errorf("LRU sweep left usage %d above watermark (limit %d)", used2, limit)
		}
		if used2 == 0 {
			t.Errorf("LRU sweep evicted everything; want trim to watermark")
		}
		// The static estimator reports the provisioned slack immediately.
		agent.adjustSlack()
		if got := agent.Slack(); got != memctl.InitialSlack {
			t.Errorf("static slack = %d, want %d", got, memctl.InitialSlack)
		}
		sys.Env.Stop()
	})
	sys.Env.Run()
}
