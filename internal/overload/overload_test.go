package overload

import (
	"errors"
	"testing"
	"time"

	"ofc/internal/sim"
)

// holdAll takes every slot of the gate for tenant and returns the
// release functions.
func holdAll(t *testing.T, adm *Admission, tenant string) []func() {
	t.Helper()
	rels := make([]func(), maxConcurrent)
	for i := range rels {
		rel, err := adm.Admit(tenant)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		rels[i] = rel
	}
	return rels
}

func releaseAll(rels []func()) {
	for _, rel := range rels {
		rel()
	}
}

func TestAdmissionFastPath(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	env.Go(func() {
		rel, err := adm.Admit("a")
		if err != nil {
			t.Errorf("fast path shed: %v", err)
			return
		}
		if adm.Inflight() != 1 {
			t.Errorf("inflight = %d, want 1", adm.Inflight())
		}
		rel()
		rel() // idempotent
		if adm.Inflight() != 0 {
			t.Errorf("inflight after release = %d, want 0", adm.Inflight())
		}
	})
	env.Run()
}

// TestAdmissionQueuesAndReleases: the first maxConcurrent arrivals
// pass, the next ones queue, and each release admits the oldest.
func TestAdmissionQueuesAndReleases(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	const n = 2 * maxConcurrent
	var order []int
	for i := 0; i < n; i++ {
		env.Go(func() {
			env.Sleep(time.Duration(i) * time.Millisecond) // deterministic arrival order
			rel, err := adm.Admit("a")
			if err != nil {
				t.Errorf("req %d shed: %v", i, err)
				return
			}
			order = append(order, i)
			env.Sleep(10 * time.Millisecond)
			rel()
		})
	}
	env.Run()
	if len(order) != n {
		t.Fatalf("admitted %d, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
	if s := adm.Stats(); s.MaxDepth != n-maxConcurrent {
		t.Fatalf("MaxDepth = %d, want %d", s.MaxDepth, n-maxConcurrent)
	}
}

// fillQueue holds every slot, queues limit waiters for tenant "a",
// then lets one more arrive and reports its error. Every request the
// gate took is admitted once the slots are released, before fillQueue
// returns.
func fillQueue(t *testing.T, env *sim.Env, adm *Admission, limit int) error {
	t.Helper()
	rels := holdAll(t, adm, "a")
	done := sim.NewWaitGroup(env)
	for i := 0; i < limit; i++ {
		done.Add(1)
		env.Go(func() {
			defer done.Done()
			rel, err := adm.Admit("a")
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			rel()
		})
	}
	env.Sleep(time.Millisecond)
	var err error
	done.Add(1)
	env.Go(func() {
		defer done.Done()
		var rel func()
		if rel, err = adm.Admit("a"); err == nil {
			rel()
		}
	})
	env.Sleep(time.Millisecond)
	releaseAll(rels)
	done.Wait()
	return err
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	env.Go(func() {
		err := fillQueue(t, env, adm, maxQueuePerTenant)
		var se *ShedError
		if !errors.Is(err, ErrShed) || !errors.As(err, &se) {
			t.Errorf("arrival past a full queue: %v, want a *ShedError", err)
		} else if se.Reason != "queue-full" || se.Tenant != "a" {
			t.Errorf("shed error = %+v", se)
		}
	})
	env.Run()
	if s := adm.Stats(); s.ShedQueueFull != 1 || s.ShedStale != 0 {
		t.Fatalf("stats = %+v, want one queue-full shed and no stale one", s)
	}
}

// TestAdmissionEqualShare: two tenants with backlogs on a full gate
// take turns at its one free slot, whatever order their requests
// arrived in. Bodies are short, so CoDel stays quiet.
func TestAdmissionEqualShare(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	var order []string
	spawn := func(tenant string) {
		for i := 0; i < maxQueuePerTenant; i++ {
			env.Go(func() {
				env.Sleep(time.Microsecond) // after the slots are taken
				rel, err := adm.Admit(tenant)
				if err != nil {
					t.Errorf("%s %d shed: %v", tenant, i, err)
					return
				}
				order = append(order, tenant)
				env.Sleep(time.Millisecond)
				rel()
			})
		}
	}
	env.Go(func() {
		rels := holdAll(t, adm, "seed")
		env.Sleep(time.Millisecond)
		rels[0]() // one slot serves both backlogs, one request at a time
		env.Sleep(2 * maxQueuePerTenant * 2 * time.Millisecond)
		releaseAll(rels[1:])
	})
	spawn("a") // every "a" queues ahead of every "b"
	spawn("b")
	env.Run()
	if len(order) != 2*maxQueuePerTenant {
		t.Fatalf("served %d, want %d: %v", len(order), 2*maxQueuePerTenant, order)
	}
	for i, tenant := range order {
		if want := []string{"a", "b"}[i%2]; tenant != want {
			t.Fatalf("dispatch %d went to %s, want %s: dispatches do not alternate: %v", i, tenant, want, order)
		}
	}
	if s := adm.Stats(); s.ShedStale != 0 || s.MaxDepth != 2*maxQueuePerTenant {
		t.Fatalf("stats = %+v, want no stale shed and both backlogs queued at once", s)
	}
}

func TestAdmissionCoDelShedsStale(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	admitted, stale := 0, 0
	// Long holders, then a burst that goes stale behind them.
	env.Go(func() {
		rels := holdAll(t, adm, "holder")
		env.Sleep(2 * codelTarget)
		releaseAll(rels)
	})
	for i := 0; i < 2*maxConcurrent; i++ {
		env.Go(func() {
			env.Sleep(time.Millisecond)
			rel, err := adm.Admit("a")
			if err != nil {
				if !errors.Is(err, ErrShed) {
					t.Errorf("unexpected error: %v", err)
				}
				stale++
				return
			}
			admitted++
			env.Sleep(2 * codelTarget) // hold the slot so delay stands
			rel()
		})
	}
	env.Run()
	if stale == 0 {
		t.Fatalf("no stale sheds (admitted=%d); CoDel never engaged", admitted)
	}
	if admitted == 0 {
		t.Fatal("everything shed; CoDel should admit at least the first head")
	}
	if s := adm.Stats(); int(s.ShedStale) != stale {
		t.Fatalf("ShedStale = %d, observed %d", s.ShedStale, stale)
	}
}

// TestAdmissionShedLevelTightensBound: in Shed a tenant's queue holds
// shedQueuePerTenant waiters; back in Normal it holds more.
func TestAdmissionShedLevelTightensBound(t *testing.T) {
	env := sim.NewEnv(1)
	adm := NewAdmission(env)
	env.Go(func() {
		adm.SetLevel(Shed)
		if err := fillQueue(t, env, adm, shedQueuePerTenant); !errors.Is(err, ErrShed) {
			t.Errorf("want shed under tightened bound, got %v", err)
		}
		adm.SetLevel(Normal)
		if err := fillQueue(t, env, adm, shedQueuePerTenant); err != nil {
			t.Errorf("Normal bound shed at %d queued: %v", shedQueuePerTenant, err)
		}
	})
	env.Run()
}

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	env := sim.NewEnv(1)
	b := NewRetryBudget(env)
	env.Go(func() {
		for i := 0; i < burst; i++ {
			if !b.Allow() {
				t.Fatalf("burst token %d denied", i)
			}
		}
		if b.Allow() {
			t.Error("empty bucket should deny")
		}
		env.Sleep(time.Second)
		for i := 0; i < refillPerSecond; i++ {
			if !b.Allow() {
				t.Errorf("refilled token %d denied", i)
			}
		}
		if b.Allow() {
			t.Errorf("only %d tokens refilled", refillPerSecond)
		}
		env.Sleep(time.Hour)
		if got := b.Remaining(); got != burst {
			t.Errorf("Remaining = %v, want capped at burst %d", got, burst)
		}
	})
	env.Run()
	s := b.Stats()
	if s.Granted != burst+refillPerSecond || s.Denied != 2 {
		t.Fatalf("stats = %+v, want %d granted / 2 denied", s, burst+refillPerSecond)
	}
	if cap := b.Cap(10 * time.Second); cap != burst+10*refillPerSecond {
		t.Fatalf("Cap(10s) = %v, want %d", cap, burst+10*refillPerSecond)
	}
}

// tickEvery samples c n times, one sampling period apart.
func tickEvery(env *sim.Env, c *Controller, n int) {
	for i := 0; i < n; i++ {
		env.Sleep(sampleEvery)
		c.Tick()
	}
}

func TestControllerTransitionsWithHysteresis(t *testing.T) {
	env := sim.NewEnv(1)
	var depth float64
	c := NewController(env, func() Signals { return Signals{QueueDepth: depth} })
	dwell := int(minDwell / sampleEvery)
	env.Go(func() {
		tickEvery(env, c, 2)
		if c.State() != Normal {
			t.Errorf("idle state = %v, want normal", c.State())
		}
		depth = queueHigh * 1.5 // score 1.5: brownout territory
		tickEvery(env, c, 1)
		if c.State() != Brownout {
			t.Errorf("state = %v, want brownout", c.State())
		}
		depth = queueHigh * 3 // score 3: shed territory
		tickEvery(env, c, 1)
		if c.State() != Shed {
			t.Errorf("state = %v, want shed", c.State())
		}
		// Pressure gone — but dwell and one-step-down must both gate.
		depth = 0
		tickEvery(env, c, dwell-1)
		if c.State() != Shed {
			t.Errorf("state left shed before minDwell: %v", c.State())
		}
		tickEvery(env, c, 1) // dwell satisfied → step to brownout only
		if c.State() != Brownout {
			t.Errorf("state = %v, want brownout (one step down)", c.State())
		}
		tickEvery(env, c, dwell) // dwell in brownout → back to normal
		if c.State() != Normal {
			t.Errorf("state = %v, want normal", c.State())
		}
	})
	env.Run()
	tr := c.Transitions()
	want := []struct{ from, to State }{
		{Normal, Brownout}, {Brownout, Shed}, {Shed, Brownout}, {Brownout, Normal},
	}
	if len(tr) != len(want) {
		t.Fatalf("transitions = %v, want %d entries", tr, len(want))
	}
	for i, w := range want {
		if tr[i].From != w.from || tr[i].To != w.to {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i, tr[i].From, tr[i].To, w.from, w.to)
		}
	}
}

func TestControllerNoFlapping(t *testing.T) {
	// Score oscillating around the brownout boundary every sample must
	// not produce a transition per sample: dwell pins the state down.
	env := sim.NewEnv(1)
	var depth float64
	c := NewController(env, func() Signals { return Signals{QueueDepth: depth} })
	const samples = 20
	env.Go(func() {
		for i := 0; i < samples; i++ {
			if i%2 == 0 {
				depth = queueHigh * 1.2 // above enter
			} else {
				depth = 0 // below exit
			}
			tickEvery(env, c, 1)
		}
	})
	env.Run()
	// Upward flaps are free (immediate by design) but each down-move
	// needs minDwell of dwell, and the next up-move comes one sample
	// after it: every up/down pair spans dwell+1 samples. Without
	// hysteresis there would be one transition per sample.
	limit := 2 * samples / (int(minDwell/sampleEvery) + 1)
	if n := len(c.Transitions()); n > limit {
		t.Fatalf("%d transitions in %d oscillating samples, want ≤ %d; hysteresis failed: %v", n, samples, limit, c.Transitions())
	}
}

func TestControllerRateSignals(t *testing.T) {
	// Cumulative counters must be differentiated: a big absolute count
	// with zero delta is not pressure.
	env := sim.NewEnv(1)
	var ooms float64 = 1000
	c := NewController(env, func() Signals { return Signals{OOMKills: ooms} })
	env.Go(func() {
		tickEvery(env, c, 1) // primes prev
		tickEvery(env, c, 1) // delta 0 → score 0
		if c.State() != Normal {
			t.Errorf("steady counter drove state to %v", c.State())
		}
		ooms += oomRateHigh * sampleEvery.Seconds() * 2 // rate = 2×high
		tickEvery(env, c, 1)
		if c.State() != Shed {
			t.Errorf("OOM burst: state = %v, want shed (score %v)", c.State(), c.Score())
		}
	})
	env.Run()
}

func TestShedErrorFormatting(t *testing.T) {
	err := &ShedError{Tenant: "t0", Reason: "stale"}
	if !errors.Is(err, ErrShed) {
		t.Fatal("ShedError must unwrap to ErrShed")
	}
	if err.Error() == "" || ErrShed.Error() == "" {
		t.Fatal("empty error strings")
	}
	for _, s := range []State{Normal, Brownout, Shed, State(9)} {
		if s.String() == "" {
			t.Fatalf("State(%d).String() empty", int(s))
		}
	}
}
