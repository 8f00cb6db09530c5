package simnet

import (
	"errors"
	"testing"
	"time"

	"ofc/internal/sim"
)

func TestPartitionBlocksTransferUntilHeal(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	env.Go(func() {
		n.Partition(a.ID, b.ID)
		start := env.Now()
		if err := n.TryTransfer(a.ID, b.ID, 1<<10); !errors.Is(err, ErrUnreachable) {
			t.Errorf("err=%v, want ErrUnreachable", err)
		}
		// The sender pays the failure-detection delay, not zero time.
		if took := env.Now() - start; took != failureDetectDelay {
			t.Errorf("detection took %v, want %v", took, failureDetectDelay)
		}
		// Symmetric: the reverse direction is cut too.
		if err := n.TryTransfer(b.ID, a.ID, 1<<10); !errors.Is(err, ErrUnreachable) {
			t.Errorf("reverse err=%v", err)
		}
		n.Heal(a.ID, b.ID)
		if err := n.TryTransfer(a.ID, b.ID, 1<<10); err != nil {
			t.Errorf("after heal: %v", err)
		}
	})
	env.Run()
}

func TestNodeDownUnreachableBothWays(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	c := n.AddNode("c")
	env.Go(func() {
		n.SetNodeDown(b.ID, true)
		if !n.NodeDown(b.ID) {
			t.Error("NodeDown=false after SetNodeDown")
		}
		if err := n.TryTransfer(a.ID, b.ID, 1<<10); !errors.Is(err, ErrUnreachable) {
			t.Errorf("to dead node: %v", err)
		}
		if err := n.TryTransfer(b.ID, a.ID, 1<<10); !errors.Is(err, ErrUnreachable) {
			t.Errorf("from dead node: %v", err)
		}
		// Unrelated links keep working.
		if err := n.TryTransfer(a.ID, c.ID, 1<<10); err != nil {
			t.Errorf("bystander link: %v", err)
		}
		n.SetNodeDown(b.ID, false)
		if err := n.TryTransfer(a.ID, b.ID, 1<<10); err != nil {
			t.Errorf("after revive: %v", err)
		}
	})
	env.Run()
}

func TestDegradeLinkStretchesTransfer(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	size := int64(1 << 20)
	var clean, degraded time.Duration
	env.Go(func() {
		start := env.Now()
		if err := n.TryTransfer(a.ID, b.ID, size); err != nil {
			t.Fatal(err)
		}
		clean = env.Now() - start
		n.DegradeLink(a.ID, b.ID, 4, 0.25)
		start = env.Now()
		if err := n.TryTransfer(a.ID, b.ID, size); err != nil {
			t.Fatal(err)
		}
		degraded = env.Now() - start
		// Exact model: serialization stretched by 1/bw, propagation by lat.
		tx := n.txTime(size)
		want := 2*time.Duration(float64(tx)/0.25) + 4*linkLatency
		if degraded != want {
			t.Errorf("degraded=%v, want %v", degraded, want)
		}
		n.ResetLink(a.ID, b.ID)
		start = env.Now()
		n.TryTransfer(a.ID, b.ID, size)
		if after := env.Now() - start; after != clean {
			t.Errorf("after reset %v, clean %v", after, clean)
		}
	})
	env.Run()
	if degraded <= clean {
		t.Errorf("degraded=%v not slower than clean=%v", degraded, clean)
	}
}

func TestPacketLossRetransmits(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	n.SeedFaults(42)
	size := int64(256 << 10)
	var clean, lossy time.Duration
	env.Go(func() {
		start := env.Now()
		n.TryTransfer(a.ID, b.ID, size)
		clean = env.Now() - start
		n.SetPacketLoss(a.ID, b.ID, 0.9)
		// Several transfers: with p=0.9 at least one must draw a
		// retransmission and come out slower.
		var worst time.Duration
		for i := 0; i < 5; i++ {
			start = env.Now()
			if err := n.TryTransfer(a.ID, b.ID, size); err != nil {
				t.Fatal(err)
			}
			if d := env.Now() - start; d > worst {
				worst = d
			}
		}
		lossy = worst
	})
	env.Run()
	if lossy <= clean {
		t.Errorf("lossy worst=%v not slower than clean=%v", lossy, clean)
	}
}

func TestPacketLossDeterministicUnderSeed(t *testing.T) {
	runOnce := func() []time.Duration {
		env := sim.NewEnv(1)
		n, a, b := testNet(env)
		n.SeedFaults(7)
		var out []time.Duration
		env.Go(func() {
			n.SetPacketLoss(a.ID, b.ID, 0.5)
			for i := 0; i < 8; i++ {
				start := env.Now()
				n.TryTransfer(a.ID, b.ID, 64<<10)
				out = append(out, env.Now()-start)
			}
		})
		env.Run()
		return out
	}
	x, y := runOnce(), runOnce()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("transfer %d: %v vs %v (same seed)", i, x[i], y[i])
		}
	}
}

func TestDiskFactorSlowsNodeDisk(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, _ := testNet(env)
	size := int64(4 << 20)
	var clean, slow time.Duration
	env.Go(func() {
		start := env.Now()
		a.DiskRead(size)
		clean = env.Now() - start
		n.SetDiskFactor(a.ID, 8)
		start = env.Now()
		a.DiskRead(size)
		slow = env.Now() - start
		n.SetDiskFactor(a.ID, 1)
		start = env.Now()
		a.DiskRead(size)
		if restored := env.Now() - start; restored != clean {
			t.Errorf("restored=%v, clean=%v", restored, clean)
		}
	})
	env.Run()
	if slow < 7*clean || slow > 9*clean {
		t.Errorf("slow=%v, want ≈8× clean=%v", slow, clean)
	}
}

func TestTryCallUnreachable(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	env.Go(func() {
		n.SetNodeDown(b.ID, true)
		_, err := TryCall(n, a.ID, b.ID, 128, 128, func() int { return 42 })
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err=%v, want ErrUnreachable", err)
		}
		n.SetNodeDown(b.ID, false)
		v, err := TryCall(n, a.ID, b.ID, 128, 128, func() int { return 42 })
		if err != nil || v != 42 {
			t.Errorf("v=%d err=%v", v, err)
		}
	})
	env.Run()
}
