package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// queueCover counts the situations of a queue run that the two-heap
// layout has to get right, so a seeded test can show it reached them.
type queueCover struct {
	crossTies  int // pops whose time is also the other heap's top time
	holeFills  int // pushes that landed in an empty root
	drainCalls int // pops that emptied calls while work still held timers
	drainWork  int // pops that emptied work while calls still held timers
}

// Each op byte of runQueue is one push or pop: b%3 is 0 for an After
// callback (calls), 1 for a continuation or sleeper (work), 2 for a
// pop, and a push lands at instant (b/3)%8, so instants collide often.
const (
	opCall = iota
	opWork
	opPop
)

// runQueue applies ops to an Env's event queue (push and earliest, the
// scheduler's own entry points) and to a sorted slice, then drains
// both, and fails at the first pop, size or heap count on which they
// differ.
func runQueue(t *testing.T, ops []byte) queueCover {
	t.Helper()
	var cov queueCover
	env := NewEnv(1)
	var model []*timer // pending timers in (at, seq) order
	calls := 0         // how many of them are After callbacks
	noop := func() {}
	isCall := func(x *timer) bool { return x.fn != nil && !x.cont }
	pop := func(i int) bool {
		got := env.earliest()
		if len(model) == 0 {
			if got != nil {
				t.Errorf("op %d: popped (%v, %d) from an empty queue", i, got.at, got.seq)
			}
			return got == nil
		}
		want := model[0]
		if got != want {
			if got == nil {
				t.Errorf("op %d: popped nothing, want (%v, %d)", i, want.at, want.seq)
			} else {
				t.Errorf("op %d: popped (%v, %d), want (%v, %d)", i, got.at, got.seq, want.at, want.seq)
			}
			return false
		}
		model = model[1:]
		if isCall(want) {
			calls--
		}
		for _, x := range model {
			if isCall(x) != isCall(want) && x.at == want.at {
				cov.crossTies++
				break
			}
		}
		switch {
		case isCall(want) && calls == 0 && len(model) > 0:
			cov.drainCalls++
		case !isCall(want) && calls == len(model) && calls > 0:
			cov.drainWork++
		}
		return true
	}
	for i, b := range ops {
		switch b % 3 {
		case opPop:
			if !pop(i) {
				return cov
			}
		default:
			x := new(timer)
			q := &env.work
			switch {
			case b%3 == opCall:
				x.fn = noop
				q = &env.calls
				calls++
			case b%2 == 0:
				x.fn, x.cont = noop, true
			}
			if len(*q) > 0 && (*q)[0] == nil {
				cov.holeFills++
			}
			env.push(Time(b/3%8), x)
			at := slices.IndexFunc(model, func(y *timer) bool { return less(x, y) })
			if at < 0 {
				at = len(model)
			}
			model = slices.Insert(model, at, x)
		}
		if got := env.pending(); got != len(model) {
			t.Errorf("op %d: %d timers pending, want %d", i, got, len(model))
			return cov
		}
		if got := env.calls.size(); got != calls {
			t.Errorf("op %d: %d callbacks pending, want %d", i, got, calls)
			return cov
		}
	}
	for i := len(ops); len(model) > 0; i++ {
		if !pop(i) {
			return cov
		}
	}
	if got := env.earliest(); got != nil || env.pending() != 0 {
		t.Errorf("drained queue popped %v, holds %d", got, env.pending())
	}
	return cov
}

// queueOps is a seeded interleaving in phases: each phase favours one
// heap and either grows the queue or shrinks it, so pops drain one
// heap while the other holds timers, and pushes follow pops into an
// empty root.
func queueOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 0, n)
	for len(ops) < n {
		callShare := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
		popShare := 0.2 + 0.6*rng.Float64()
		for k := 10 + rng.Intn(60); k > 0 && len(ops) < n; k-- {
			kind := opWork
			switch {
			case rng.Float64() < popShare:
				kind = opPop
			case rng.Float64() < callShare:
				kind = opCall
			}
			ops = append(ops, byte(3*rng.Intn(85)+kind))
		}
	}
	return ops
}

// TestEventQueueMatchesSortedModel: over seeded interleavings, the two
// heaps pop exactly the (at, seq) order of one sorted list, and count
// what they hold without their empty roots, through ties at one
// instant across both heaps, pushes into an empty root and pops that
// drain either heap.
func TestEventQueueMatchesSortedModel(t *testing.T) {
	var total queueCover
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cov := runQueue(t, queueOps(rng, 50+rng.Intn(1500)))
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
		total.crossTies += cov.crossTies
		total.holeFills += cov.holeFills
		total.drainCalls += cov.drainCalls
		total.drainWork += cov.drainWork
	}
	if total.crossTies == 0 || total.holeFills == 0 || total.drainCalls == 0 || total.drainWork == 0 {
		t.Errorf("schedules missed a case: %+v", total)
	}
}

// FuzzEventQueue runs runQueue on arbitrary op strings; its seed corpus
// is a few of the seeded interleavings and the shapes around an empty
// root.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opCall, opWork, opPop, opCall, opPop, opPop})
	f.Add([]byte{3 + opCall, 3 + opWork, opWork, opCall, opPop, 6 + opWork, opPop, opPop, opPop})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(queueOps(rand.New(rand.NewSource(seed)), 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runQueue(t, ops) })
}

// TestCrossHeapOrderAtOneInstant: an After callback, a Then
// continuation and a Sleep wake-up due at the same nanosecond run in
// the order they were scheduled, whichever heap holds them. Once Stop
// or the horizon comes first, the callback is dropped, and the
// continuation and the sleeper still run, in schedule order, at the
// frozen clock.
func TestCrossHeapOrderAtOneInstant(t *testing.T) {
	const due = 10 * time.Millisecond
	for _, order := range [][3]string{
		{"after", "then", "sleep"}, {"after", "sleep", "then"},
		{"then", "after", "sleep"}, {"then", "sleep", "after"},
		{"sleep", "after", "then"}, {"sleep", "then", "after"},
	} {
		for _, end := range []string{"run", "stop", "horizon"} {
			env := NewEnv(1)
			var got []string
			var at []Time
			ran := func(kind string) {
				got = append(got, kind)
				at = append(at, env.Now())
			}
			env.Go(func() {
				for _, kind := range order {
					switch kind {
					case "after":
						env.After(due-env.Now(), func() { ran("after") })
					case "then":
						env.Then(due-env.Now(), func() { ran("then") })
					case "sleep":
						env.Go(func() {
							env.Sleep(due - env.Now())
							ran("sleep")
						})
						env.Sleep(0) // the sleeper schedules its wake-up now
					}
				}
			})
			want, wantAt := order[:], due
			switch end {
			case "stop":
				env.Go(func() {
					env.Sleep(due / 2)
					env.Stop()
				})
			case "horizon":
				env.SetHorizon(due / 2)
			}
			if end != "run" {
				want = slices.DeleteFunc(slices.Clone(want), func(k string) bool { return k == "after" })
				wantAt = due / 2
			}
			env.Run()
			if !slices.Equal(got, want) {
				t.Errorf("%v, %s: ran %v, want %v", order, end, got, want)
			}
			for i, a := range at {
				if a != wantAt {
					t.Errorf("%v, %s: %s ran at %v, want %v", order, end, got[i], a, wantAt)
				}
			}
		}
	}
}
