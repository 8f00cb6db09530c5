package chaos

import (
	"strings"
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

func testNet(t *testing.T) (*sim.Env, *simnet.Network, simnet.NodeID, simnet.NodeID) {
	t.Helper()
	env := sim.NewEnv(1)
	net := simnet.New(env)
	a := net.AddNode("a").ID
	b := net.AddNode("b").ID
	return env, net, a, b
}

func TestScheduleBuilderSortsEvents(t *testing.T) {
	s := NewSchedule().
		RestartAt(30*time.Second, 1).
		CrashAt(10*time.Second, 1).
		PartitionAt(20*time.Second, 0, 1)
	ev := s.Events()
	if len(ev) != 3 || s.Len() != 3 {
		t.Fatalf("events=%d", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Errorf("events not sorted: %v after %v", ev[i], ev[i-1])
		}
	}
	if ev[0].Kind != Crash || ev[1].Kind != Partition || ev[2].Kind != Restart {
		t.Errorf("order=%v %v %v", ev[0].Kind, ev[1].Kind, ev[2].Kind)
	}
	// Events() is a copy: mutating it must not corrupt the schedule.
	ev[0].Node = 99
	if s.Events()[0].Node == 99 {
		t.Error("Events() aliases internal storage")
	}
}

func TestKillRotation(t *testing.T) {
	s := NewSchedule().KillRotation(time.Minute, time.Minute, 30*time.Second, 3, 4, 5)
	ev := s.Events()
	if len(ev) != 6 {
		t.Fatalf("events=%d, want 6", len(ev))
	}
	wantTimes := []time.Duration{60 * time.Second, 90 * time.Second, 120 * time.Second,
		150 * time.Second, 180 * time.Second, 210 * time.Second}
	wantKinds := []Kind{Crash, Restart, Crash, Restart, Crash, Restart}
	wantNodes := []simnet.NodeID{3, 3, 4, 4, 5, 5}
	for i, e := range ev {
		if e.At != wantTimes[i] || e.Kind != wantKinds[i] || e.Node != wantNodes[i] {
			t.Errorf("event %d = %+v, want t=%v kind=%v node=%v", i, e, wantTimes[i], wantKinds[i], wantNodes[i])
		}
	}
}

func TestInjectorAppliesOnVirtualClock(t *testing.T) {
	env, net, a, b := testNet(t)
	sched := NewSchedule().
		CrashAt(10*time.Millisecond, b).
		RestartAt(30*time.Millisecond, b).
		PartitionAt(50*time.Millisecond, a, b).
		HealAt(70*time.Millisecond, a, b)
	inj := NewInjector(net, sched, 1)
	var crashAt, restartAt sim.Time = -1, -1
	inj.OnCrash = func(n simnet.NodeID) { crashAt = env.Now() }
	inj.OnRestart = func(n simnet.NodeID) { restartAt = env.Now() }
	inj.Start()

	type probe struct {
		at  time.Duration
		err error
	}
	var probes []probe
	env.Go(func() {
		for _, at := range []time.Duration{5, 15, 35, 55, 75} {
			target := at * time.Millisecond
			env.Sleep(target - time.Duration(env.Now()))
			probes = append(probes, probe{target, net.TryTransfer(a, b, 1<<10)})
		}
	})
	env.Run()

	if crashAt != 10*time.Millisecond || restartAt != 30*time.Millisecond {
		t.Errorf("hooks fired at crash=%v restart=%v", crashAt, restartAt)
	}
	wantErr := []bool{false, true, false, true, false}
	for i, p := range probes {
		if (p.err != nil) != wantErr[i] {
			t.Errorf("probe at %v: err=%v, want failing=%v", p.at, p.err, wantErr[i])
		}
	}
	applied := inj.Applied()
	if len(applied) != 4 {
		t.Fatalf("applied=%d events: %v", len(applied), applied)
	}
	for _, want := range []string{"crash", "restart", "partition", "heal"} {
		found := false
		for _, line := range applied {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("applied log missing %q: %v", want, applied)
		}
	}
}

func TestInjectorDegradeAndDiskEvents(t *testing.T) {
	env, net, a, b := testNet(t)
	sched := NewSchedule().
		DegradeLinkAt(time.Millisecond, a, b, 3, 0.5).
		DiskSlowAt(time.Millisecond, b, 4).
		ResetLinkAt(10*time.Millisecond, a, b).
		Add(Event{At: 10 * time.Millisecond, Kind: DiskSlow, Node: b, DiskFactor: 1})
	NewInjector(net, sched, 1).Start()
	size := int64(1 << 20)
	var degraded, restored time.Duration
	env.Go(func() {
		env.Sleep(2 * time.Millisecond)
		start := env.Now()
		net.TryTransfer(a, b, size)
		degraded = time.Duration(env.Now() - start)
		env.Sleep(20*time.Millisecond - time.Duration(env.Now()))
		start = env.Now()
		net.TryTransfer(a, b, size)
		restored = time.Duration(env.Now() - start)
	})
	env.Run()
	if degraded <= restored {
		t.Errorf("degraded=%v not slower than restored=%v", degraded, restored)
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	runOnce := func() []string {
		env := sim.NewEnv(1)
		net := simnet.New(env)
		a := net.AddNode("a").ID
		b := net.AddNode("b").ID
		sched := NewSchedule().KillRotation(time.Second, time.Second, 500*time.Millisecond, a, b)
		inj := NewInjector(net, sched, 99)
		inj.Start()
		env.Go(func() { env.Sleep(5 * time.Second) })
		env.Run()
		return inj.Applied()
	}
	x, y := runOnce(), runOnce()
	if len(x) != 4 {
		t.Fatalf("applied=%d, want 4", len(x))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Errorf("replay diverged at %d: %q vs %q", i, x[i], y[i])
		}
	}
}

func TestHookEventsFireOnSchedule(t *testing.T) {
	env, net, a, _ := testNet(t)
	var fired []string
	sched := NewSchedule().
		HookAt(2*time.Second, "late", func() { fired = append(fired, "late@"+env.Now().String()) }).
		HookAt(time.Second, "early", func() { fired = append(fired, "early@"+env.Now().String()) })
	_ = a
	inj := NewInjector(net, sched, 1)
	inj.Start()
	env.Go(func() { env.Sleep(5 * time.Second) })
	env.Run()
	if len(fired) != 2 || fired[0] != "early@1s" || fired[1] != "late@2s" {
		t.Errorf("fired=%v, want [early@1s late@2s]", fired)
	}
	log := inj.Applied()
	if len(log) != 2 || !strings.Contains(log[0], "hook early") || !strings.Contains(log[1], "hook late") {
		t.Errorf("applied log=%v", log)
	}
}

func TestOverloadCrashBuilderShape(t *testing.T) {
	spike := func() {}
	calm := func() {}
	s := NewSchedule().OverloadCrash(20*time.Second, 30*time.Second, 10*time.Second, 5*time.Second, 7, spike, calm)
	ev := s.Events()
	if len(ev) != 4 {
		t.Fatalf("events=%d, want 4", len(ev))
	}
	// spike hook, crash, restart, calm hook — in time order.
	if ev[0].Kind != Hook || ev[0].Name != "spike" || ev[0].At != 20*time.Second {
		t.Errorf("event 0 = %+v, want spike hook at 20s", ev[0])
	}
	if ev[1].Kind != Crash || ev[1].Node != 7 || ev[1].At != 30*time.Second {
		t.Errorf("event 1 = %+v, want crash of node 7 at 30s", ev[1])
	}
	if ev[2].Kind != Restart || ev[2].Node != 7 || ev[2].At != 35*time.Second {
		t.Errorf("event 2 = %+v, want restart of node 7 at 35s", ev[2])
	}
	if ev[3].Kind != Hook || ev[3].Name != "calm" || ev[3].At != 50*time.Second {
		t.Errorf("event 3 = %+v, want calm hook at 50s", ev[3])
	}
}

func TestOverloadCrashRunsHooksAroundCrash(t *testing.T) {
	env, net, a, _ := testNet(t)
	var order []string
	sched := NewSchedule().OverloadCrash(time.Second, 4*time.Second, 2*time.Second, time.Second, a,
		func() { order = append(order, "spike") },
		func() { order = append(order, "calm") })
	inj := NewInjector(net, sched, 1)
	inj.OnCrash = func(n simnet.NodeID) { order = append(order, "crash") }
	inj.OnRestart = func(n simnet.NodeID) { order = append(order, "restart") }
	inj.Start()
	env.Go(func() { env.Sleep(10 * time.Second) })
	env.Run()
	want := []string{"spike", "crash", "restart", "calm"}
	if len(order) != len(want) {
		t.Fatalf("order=%v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}
