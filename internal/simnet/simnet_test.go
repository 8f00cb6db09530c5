package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"ofc/internal/sim"
)

func testNet(env *sim.Env) (*Network, *Node, *Node) {
	n := New(env, DefaultConfig())
	a := n.AddNode("a")
	b := n.AddNode("b")
	return n, a, b
}

func TestTransferTiming(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	var took time.Duration
	env.Go(func() {
		start := env.Now()
		n.Transfer(a.ID, b.ID, 1<<20) // 1 MiB
		took = env.Now() - start
	})
	env.Run()
	// 1 MiB at 1.25 GB/s ≈ 0.839 ms serialization, counted twice
	// (tx + rx), plus 25 µs propagation.
	tx := n.txTime(1 << 20)
	want := 2*tx + n.Config().LinkLatency
	if took != want {
		t.Errorf("transfer took %v, want %v", took, want)
	}
}

func TestLoopbackIsCheap(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, _ := testNet(env)
	var took time.Duration
	env.Go(func() {
		start := env.Now()
		n.Transfer(a.ID, a.ID, 100<<20)
		took = env.Now() - start
	})
	env.Run()
	if took != n.Config().LoopbackLatency {
		t.Errorf("loopback took %v, want %v", took, n.Config().LoopbackLatency)
	}
}

func TestNICSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	n := New(env, cfg)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	size := int64(10 << 20)
	done := make([]time.Duration, 2)
	env.Go(func() {
		n.Transfer(a.ID, b.ID, size)
		done[0] = env.Now()
	})
	env.Go(func() {
		n.Transfer(a.ID, c.ID, size)
		done[1] = env.Now()
	})
	env.Run()
	tx := n.txTime(size)
	// Two transfers share a's transmit NIC: the second cannot finish
	// at the unserialized time.
	unserialized := 2*tx + cfg.LinkLatency
	later := done[0]
	if done[1] > later {
		later = done[1]
	}
	if later <= unserialized {
		t.Errorf("no NIC serialization: second finished at %v, unserialized bound %v", later, unserialized)
	}
}

func TestCallRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	var took time.Duration
	var got int
	var err error
	env.Go(func() {
		start := env.Now()
		got, err = TryCall(n, a.ID, b.ID, 100, 100, func() int {
			env.Sleep(time.Millisecond) // service time
			return 42
		})
		took = env.Now() - start
	})
	env.Run()
	if got != 42 || err != nil {
		t.Fatalf("got %d, %v", got, err)
	}
	oneWay := 2*n.txTime(100) + n.Config().LinkLatency
	want := 2*oneWay + time.Millisecond
	if took != want {
		t.Errorf("call took %v, want %v", took, want)
	}
}

func TestDiskTiming(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	n := New(env, cfg)
	a := n.AddNode("a")
	var readTook, writeTook time.Duration
	env.Go(func() {
		start := env.Now()
		a.DiskRead(50 << 20)
		readTook = env.Now() - start
		start = env.Now()
		a.DiskWrite(45 << 20)
		writeTook = env.Now() - start
	})
	env.Run()
	wantRead := cfg.DiskReadLatency + time.Duration(float64(50<<20)/cfg.DiskReadBandwidth*float64(time.Second))
	if readTook != wantRead {
		t.Errorf("read took %v, want %v", readTook, wantRead)
	}
	wantWrite := cfg.DiskWriteLatency + time.Duration(float64(45<<20)/cfg.DiskWriteBandwidth*float64(time.Second))
	if writeTook != wantWrite {
		t.Errorf("write took %v, want %v", writeTook, wantWrite)
	}
}

func TestDiskSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, DefaultConfig())
	a := n.AddNode("a")
	var end time.Duration
	wg := sim.NewWaitGroup(env)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			a.DiskWrite(0)
		})
	}
	env.Go(func() {
		wg.Wait()
		end = env.Now()
	})
	env.Run()
	want := 4 * DefaultConfig().DiskWriteLatency
	if end != want {
		t.Errorf("4 serialized writes ended at %v, want %v", end, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	env := sim.NewEnv(1)
	n, a, b := testNet(env)
	env.Go(func() {
		n.Transfer(a.ID, b.ID, 1000)
		n.Transfer(a.ID, b.ID, 500)
		a.DiskWrite(300)
		b.DiskRead(200)
	})
	env.Run()
	sent, _, _, dw := a.Stats()
	if sent != 1500 || dw != 300 {
		t.Errorf("a stats sent=%d dw=%d", sent, dw)
	}
	_, recv, dr, _ := b.Stats()
	if recv != 1500 || dr != 200 {
		t.Errorf("b stats recv=%d dr=%d", recv, dr)
	}
}

// Property: transfer duration is monotonic in size.
func TestPropertyTransferMonotonic(t *testing.T) {
	f := func(s1, s2 uint32) bool {
		a64, b64 := int64(s1), int64(s2)
		if a64 > b64 {
			a64, b64 = b64, a64
		}
		env := sim.NewEnv(1)
		n, a, b := testNet(env)
		var d1, d2 time.Duration
		env.Go(func() {
			start := env.Now()
			n.Transfer(a.ID, b.ID, a64)
			d1 = env.Now() - start
			start = env.Now()
			n.Transfer(a.ID, b.ID, b64)
			d2 = env.Now() - start
		})
		env.Run()
		return d1 <= d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUnknownNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown node")
		}
	}()
	n.Node(3)
}
