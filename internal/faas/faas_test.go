package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// testbed: 1 controller node, 1 storage node, 3 workers bound to a
// Swift-like RSDS.
type testbed struct {
	env   *sim.Env
	net   *simnet.Network
	p     *Platform
	store *objstore.Store
}

func newTestbed(seed int64, capacity int64) *testbed { return newTestbedN(seed, capacity, 3) }

// newTestbedN is newTestbed with a chosen number of workers.
func newTestbedN(seed int64, capacity int64, workers int) *testbed {
	env := sim.NewEnv(seed)
	net := simnet.New(env)
	net.AddNode("ctrl")    // 0
	net.AddNode("storage") // 1
	for i := 0; i < workers; i++ {
		net.AddNode("worker")
	}
	store := objstore.New(net, 1, objstore.SwiftProfile())
	p := New(net, 0, DefaultConfig())
	storage := NewRSDSStorage(store)
	for i := 0; i < workers; i++ {
		p.AddInvoker(simnet.NodeID(2+i), capacity, storage)
	}
	return &testbed{env: env, net: net, p: p, store: store}
}

// invokeAsync starts req in its own process and returns a future that
// resolves to its result.
func invokeAsync(tb *testbed, req *Request) *sim.Future[*Result] {
	f := sim.NewFuture[*Result](tb.env)
	tb.env.Go(func() { f.Set(tb.p.Invoke(req)) })
	return f
}

// booksBalanced recounts inv's sandbox index the slow way and compares
// the result with the running count and BookedWaste.
func booksBalanced(inv *Invoker) bool {
	var n int
	var waste int64
	for _, list := range inv.sandboxes {
		for _, sb := range list {
			n++
			if d := sb.fn.MemoryBooked - sb.mem; d > 0 {
				waste += d
			}
		}
	}
	return n == inv.live && waste == inv.waste
}

// emptyFn is a no-op function.
func emptyFn(booked int64) *Function {
	return &Function{
		Name: "empty", Tenant: "t", MemoryBooked: booked, InputType: "none",
		Body: func(ctx *Ctx) error { return nil },
	}
}

// timedFn computes for as long as its "run" argument says (nanoseconds)
// with a 32 MB peak.
func timedFn(booked int64) *Function {
	return &Function{
		Name: "timed", Tenant: "t", MemoryBooked: booked, InputType: "none",
		Body: func(ctx *Ctx) error { return ctx.Transform(time.Duration(ctx.Arg("run")), 32<<20) },
	}
}

// etlFn reads in/<i>, computes, writes out/<i>.
func etlFn(name string, compute time.Duration, peak int64) *Function {
	return &Function{
		Name: name, Tenant: "t", MemoryBooked: 512 << 20, InputType: "image",
		Body: func(ctx *Ctx) error {
			blob, err := ctx.Extract(ctx.InputKeys()[0])
			if err != nil {
				return err
			}
			if err := ctx.Transform(compute, peak); err != nil {
				return err
			}
			return ctx.Load("out/"+ctx.InputKeys()[0], Blob{Size: blob.Size}, KindFinal)
		},
	}
}

func TestEmptyFunctionEndToEnd(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	var warm *Result
	tb.env.Go(func() {
		cold := tb.p.Invoke(&Request{Function: fn})
		if !cold.ColdStart {
			t.Error("first invocation not cold")
		}
		warm = tb.p.Invoke(&Request{Function: fn})
	})
	tb.env.Run()
	if warm.ColdStart {
		t.Error("second invocation cold")
	}
	// Paper §6.4: empty function through the distributed OWK ≈ 8 ms.
	d := warm.Duration()
	if d < 6*time.Millisecond || d > 11*time.Millisecond {
		t.Errorf("warm empty invocation took %v, want ≈8ms", d)
	}
}

func TestColdStartCost(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	var cold *Result
	tb.env.Go(func() { cold = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if d := cold.Duration(); d < coldStart {
		t.Errorf("cold invocation %v < cold-start cost", d)
	}
	st := tb.p.Stats()
	if st.ColdStarts != 1 || st.WarmStarts != 0 {
		t.Errorf("stats=%+v", st)
	}
}

func TestSandboxReuseAndMemoryAccounting(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	tb.env.Go(func() {
		for i := 0; i < 5; i++ {
			tb.p.Invoke(&Request{Function: fn})
		}
		// Check before the keep-alive timers reclaim the sandbox.
		total := 0
		var reserved int64
		for _, inv := range tb.p.Invokers() {
			total += inv.SandboxCount()
			reserved += inv.Reserved()
		}
		if total != 1 {
			t.Errorf("sandboxes=%d, want 1 (reuse)", total)
		}
		if reserved != 256<<20 {
			t.Errorf("reserved=%d", reserved)
		}
		st := tb.p.Stats()
		if st.WarmStarts != 4 {
			t.Errorf("warm=%d", st.WarmStarts)
		}
	})
	tb.env.Run()
}

func TestKeepAliveExpiry(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	tb.env.Go(func() {
		tb.p.Invoke(&Request{Function: fn})
		tb.env.Sleep(tb.p.cfg.KeepAlive + time.Second)
		count := 0
		for _, inv := range tb.p.Invokers() {
			count += inv.SandboxCount()
		}
		if count != 0 {
			t.Errorf("sandboxes=%d after keep-alive", count)
		}
		var reserved int64
		for _, inv := range tb.p.Invokers() {
			reserved += inv.Reserved()
		}
		if reserved != 0 {
			t.Errorf("reserved=%d after expiry", reserved)
		}
	})
	tb.env.Run()
}

func TestKeepAliveRefreshedByUse(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	tb.env.Go(func() {
		tb.p.Invoke(&Request{Function: fn})
		// Keep poking the sandbox at intervals below keep-alive.
		for i := 0; i < 3; i++ {
			tb.env.Sleep(tb.p.cfg.KeepAlive - time.Minute)
			res := tb.p.Invoke(&Request{Function: fn})
			if res.ColdStart {
				t.Errorf("poke %d went cold", i)
			}
		}
	})
	tb.env.Run()
}

func TestETLPhasesAccounted(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := etlFn("resize", 20*time.Millisecond, 100<<20)
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(16<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Extract < 38*time.Millisecond {
		t.Errorf("extract=%v, want ≈40ms (Swift GET)", res.Extract)
	}
	if res.Transform != 20*time.Millisecond {
		t.Errorf("transform=%v", res.Transform)
	}
	if res.Load < 110*time.Millisecond {
		t.Errorf("load=%v, want ≈115ms (Swift PUT)", res.Load)
	}
	if res.PeakMem != 100<<20 {
		t.Errorf("peak=%d", res.PeakMem)
	}
}

func TestOOMRetryAtBookedMemory(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := etlFn("hungry", 50*time.Millisecond, 300<<20) // short: no rescue
	tb.p.Register(fn)
	// Advisor underpredicts badly.
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("retry did not save the invocation: %v", res.Err)
	}
	if !res.Retried {
		t.Error("not marked retried")
	}
	if res.SandboxMem != 512<<20 {
		t.Errorf("retry sandbox mem=%d, want booked", res.SandboxMem)
	}
	st := tb.p.Stats()
	if st.OOMKills != 1 || st.Retries != 1 {
		t.Errorf("stats=%+v", st)
	}
}

func TestMonitorRescuesLongInvocations(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	tb.p.MonitorEnabled = true
	fn := etlFn("long", 5*time.Second, 300<<20) // ≥3s: rescued
	tb.p.Register(fn)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Rescued || res.Retried {
		t.Errorf("rescued=%v retried=%v", res.Rescued, res.Retried)
	}
	if res.SandboxMem < 300<<20 {
		t.Errorf("sandbox mem=%d after rescue", res.SandboxMem)
	}
	if tb.p.Stats().OOMKills != 0 {
		t.Error("rescue counted as OOM")
	}
}

func TestAdvisedMemoryShrinksSandbox(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := etlFn("light", 10*time.Millisecond, 80<<20)
	tb.p.Register(fn)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 96 << 20, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SandboxMem != 96<<20 {
		t.Errorf("sandbox=%d, want advised 96MB", res.SandboxMem)
	}
}

func TestNoCapacityFailsEventually(t *testing.T) {
	tb := newTestbed(1, 128<<20) // tiny workers
	fn := emptyFn(512 << 20)     // bigger than any node
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if !errors.Is(res.Err, ErrNoCapacity) {
		t.Errorf("err=%v", res.Err)
	}
}

// TestInvokeNeedsRegistration: a function Register never saw is
// refused at once, whether or not it books memory, and starts no
// sandbox.
func TestInvokeNeedsRegistration(t *testing.T) {
	for _, booked := range []int64{0, 256 << 20} {
		tb := newTestbed(1, 8<<30)
		fn := emptyFn(booked)
		var res *Result
		tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
		tb.env.Run()
		if !errors.Is(res.Err, ErrUnregistered) || res.Duration() != 0 {
			t.Errorf("booked %d: err=%v after %v, want ErrUnregistered at once", booked, res.Err, res.Duration())
		}
		if st := tb.p.Stats(); st.ColdStarts != 0 || st.WarmStarts != 0 {
			t.Errorf("booked %d: stats=%+v, want no sandbox", booked, st)
		}
	}
}

func TestCacheGrantLimitsSandboxes(t *testing.T) {
	tb := newTestbed(1, 1<<30)
	inv := tb.p.Invokers()[0]
	granted := inv.SetCacheGrant(900 << 20)
	if granted != 900<<20 {
		t.Fatalf("granted=%d", granted)
	}
	if free := inv.FreeForSandboxes(); free != (1<<30)-(900<<20) {
		t.Errorf("free=%d", free)
	}
	// Without a governor nothing shrinks the grant: the invocation
	// runs on a worker with room, and the grant stays whole.
	fn := emptyFn(512 << 20)
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("invoke: %v", res.Err)
	}
	if res.Node == inv.Node() || inv.CacheGrant() != 900<<20 {
		t.Errorf("ran on node %d (the granted one is %d), grant=%d", res.Node, inv.Node(), inv.CacheGrant())
	}
}

type govFunc func(node simnet.NodeID, need int64) (time.Duration, error)

func (g govFunc) Reclaim(node simnet.NodeID, need int64) (time.Duration, error) {
	return g(node, need)
}

type advisorFunc func(req *Request) Advice

func (a advisorFunc) Advise(req *Request) Advice { return a(req) }

func TestGovernorReclaimOnPressure(t *testing.T) {
	tb := newTestbed(1, 1<<30)
	for _, inv := range tb.p.Invokers() {
		inv.SetCacheGrant(800 << 20)
	}
	reclaims := 0
	tb.p.Governor = govFunc(func(node simnet.NodeID, need int64) (time.Duration, error) {
		reclaims++
		inv := tb.p.Invokers()[0]
		for _, i2 := range tb.p.Invokers() {
			if i2.Node() == node {
				inv = i2
			}
		}
		inv.SetCacheGrant(inv.CacheGrant() - need)
		return 300 * time.Microsecond, nil
	})
	fn := emptyFn(512 << 20)
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("invoke: %v", res.Err)
	}
	if reclaims == 0 {
		t.Error("governor never consulted")
	}
	if res.ScaleDownTime != 300*time.Microsecond {
		t.Errorf("scale time=%v", res.ScaleDownTime)
	}
}

func TestHomeInvokerAffinity(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(128 << 20)
	tb.p.Register(fn)
	nodes := map[simnet.NodeID]int{}
	tb.env.Go(func() {
		for i := 0; i < 6; i++ {
			res := tb.p.Invoke(&Request{Function: fn})
			nodes[res.Node]++
		}
	})
	tb.env.Run()
	if len(nodes) != 1 {
		t.Errorf("function spread across %d nodes without pressure", len(nodes))
	}
}

func TestInvokeSequence(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	a := &Function{Name: "a", Tenant: "t", MemoryBooked: 128 << 20, Body: func(ctx *Ctx) error {
		return ctx.Load("mid/1", Blob{Size: 1 << 10}, KindIntermediate)
	}}
	b := &Function{Name: "b", Tenant: "t", MemoryBooked: 128 << 20, Body: func(ctx *Ctx) error {
		_, err := ctx.Extract("mid/1")
		return err
	}}
	tb.p.Register(a)
	tb.p.Register(b)
	var results []*Result
	tb.env.Go(func() {
		results = tb.p.InvokeSequence([]*Request{
			{Function: a, Pipeline: "pl-1"},
			{Function: b, Pipeline: "pl-1", FinalStage: true, InputKeys: []string{"mid/1"}},
		})
	})
	tb.env.Run()
	if len(results) != 2 {
		t.Fatalf("results=%d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("stage %d: %v", i, r.Err)
		}
	}
	if results[1].Start < results[0].End {
		t.Error("stage 2 started before stage 1 finished")
	}
}

func TestInvokeParallel(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := &Function{Name: "p", Tenant: "t", MemoryBooked: 128 << 20, Body: func(ctx *Ctx) error {
		return ctx.Transform(100*time.Millisecond, 64<<20)
	}}
	tb.p.Register(fn)
	var results []*Result
	var took time.Duration
	tb.env.Go(func() {
		start := tb.env.Now()
		reqs := make([]*Request, 4)
		for i := range reqs {
			reqs[i] = &Request{Function: fn}
		}
		results = tb.p.InvokeParallel(reqs)
		took = time.Duration(tb.env.Now() - start)
		sandboxes := 0
		for _, inv := range tb.p.Invokers() {
			sandboxes += inv.SandboxCount()
		}
		if sandboxes != 4 {
			t.Errorf("sandboxes=%d, want 4 (one per concurrent invocation)", sandboxes)
		}
	})
	tb.env.Run()
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("req %d: %v", i, r.Err)
		}
	}
	// 4 parallel 100ms invocations (each in its own sandbox) must take
	// far less than the 400ms serial time.
	if took > 800*time.Millisecond {
		t.Errorf("parallel fan-out took %v", took)
	}
}

func TestRouterOverride(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(128 << 20)
	tb.p.Register(fn)
	want := tb.p.Invokers()[2]
	tb.p.Router = routerFunc(func(req *Request, all []*Invoker, warm []*Invoker) *Invoker {
		return want
	})
	var res *Result
	tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if res.Node != want.Node() {
		t.Errorf("node=%v, want %v", res.Node, want.Node())
	}
}

type routerFunc func(req *Request, all []*Invoker, warm []*Invoker) *Invoker

func (r routerFunc) Route(req *Request, all []*Invoker, warm []*Invoker) *Invoker {
	return r(req, all, warm)
}

func TestObserverSeesCompletion(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := etlFn("obs", 10*time.Millisecond, 90<<20)
	tb.p.Register(fn)
	var seen []*Result
	tb.p.Observer = observerFunc(func(req *Request, res *Result) { seen = append(seen, res) })
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if len(seen) != 1 || seen[0].PeakMem != 90<<20 {
		t.Errorf("observer saw %d results", len(seen))
	}
}

type observerFunc func(req *Request, res *Result)

func (o observerFunc) OnComplete(req *Request, res *Result) { o(req, res) }

func TestSequenceStopsOnFailure(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	ok := &Function{Name: "ok", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error { return nil }}
	bad := &Function{Name: "bad", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error {
			_, err := ctx.Extract("missing/key")
			return err
		}}
	never := &Function{Name: "never", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error {
			t.Error("stage after a failure ran")
			return nil
		}}
	tb.p.Register(ok)
	tb.p.Register(bad)
	tb.p.Register(never)
	var results []*Result
	tb.env.Go(func() {
		results = tb.p.InvokeSequence([]*Request{
			{Function: ok}, {Function: bad}, {Function: never},
		})
	})
	tb.env.Run()
	if len(results) != 2 {
		t.Fatalf("results=%d, want 2 (sequence stops at the failure)", len(results))
	}
	if results[1].Err == nil {
		t.Error("failing stage reported no error")
	}
}

func TestWarmStartResizesToAdvice(t *testing.T) {
	// Footnote 1: on a warm start the invoker updates the memory
	// constraint of the existing container.
	tb := newTestbed(1, 8<<30)
	fn := etlFn("warm", 10*time.Millisecond, 80<<20)
	tb.p.Register(fn)
	mem := int64(96 << 20)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: mem, Use: true}
	})
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		r1 := tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
		if r1.SandboxMem != 96<<20 {
			t.Fatalf("first sandbox=%d", r1.SandboxMem)
		}
		mem = 160 << 20 // bigger inputs predicted next
		r2 := tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
		if r2.ColdStart {
			t.Error("resize path went cold")
		}
		if r2.SandboxMem != 160<<20 {
			t.Errorf("warm sandbox not resized: %d", r2.SandboxMem)
		}
	})
	tb.env.Run()
}

func TestInvocationIsolationOneAtATime(t *testing.T) {
	// A sandbox processes one invocation at a time: two concurrent
	// invocations of the same function need two sandboxes.
	tb := newTestbed(1, 8<<30)
	fn := &Function{Name: "slow", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error { return ctx.Transform(200*time.Millisecond, 64<<20) }}
	tb.p.Register(fn)
	tb.env.Go(func() {
		res := tb.p.InvokeParallel([]*Request{{Function: fn}, {Function: fn}})
		if res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("errs: %v %v", res[0].Err, res[1].Err)
		}
		count := 0
		for _, inv := range tb.p.Invokers() {
			count += inv.SandboxCount()
		}
		if count != 2 {
			t.Errorf("sandboxes=%d, want 2", count)
		}
	})
	tb.env.Run()
}

func TestActivationRecords(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := etlFn("act", 10*time.Millisecond, 90<<20)
	tb.p.Register(fn)
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		for i := 0; i < 3; i++ {
			tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
		}
	})
	tb.env.Run()
	acts := tb.p.Activations(0)
	if len(acts) != 3 {
		t.Fatalf("activations=%d", len(acts))
	}
	// Newest first; first recorded was the cold start.
	if !acts[len(acts)-1].Cold || acts[0].Cold {
		t.Errorf("cold ordering wrong: %+v", acts)
	}
	for _, a := range acts {
		if a.Function != "t/act" || a.Duration <= 0 || a.Error != "" {
			t.Errorf("record %+v", a)
		}
	}
}

func TestActivationLogBounded(t *testing.T) {
	const capacity = 4
	l := newActivationLog(capacity)
	// 0 records, a partly filled ring, exactly full, then several laps.
	for _, total := range []int{0, 3, 4, 5, 10, 4*capacity + 1} {
		for n := int(l.next); n < total; n++ {
			l.record(Activation{Function: "f", Node: n + 1})
		}
		retained := min(total, capacity)
		acts := l.list(0)
		if len(acts) != retained {
			t.Fatalf("total=%d: retained=%d, want %d", total, len(acts), retained)
		}
		// Newest first, contiguous, each under the id of its number.
		for i, a := range acts {
			n := total - i
			if a.Node != n || a.ID != activationID(uint64(n)) {
				t.Errorf("total=%d: list[%d] = node %d id %s, want record %d", total, i, a.Node, a.ID, n)
			}
		}
		if got := l.list(2); len(got) != min(2, retained) {
			t.Errorf("total=%d: list(2)=%d", total, len(got))
		}
	}
}

// Property: under any random mix of concurrent invocations, the
// invoker's books stay balanced — reserved equals the sum of live
// sandbox limits, never exceeds capacity, the cache grant never
// overlaps reservations, and the running sandbox count and BookedWaste
// equal a recount of the index.
func TestPropertyInvokerAccounting(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%24) + 4
		tb := newTestbed(seed, 4<<30)
		fns := []*Function{
			{Name: "a", Tenant: "t", MemoryBooked: 128 << 20, Body: func(ctx *Ctx) error {
				return ctx.Transform(50*time.Millisecond, 64<<20)
			}},
			{Name: "b", Tenant: "t", MemoryBooked: 384 << 20, Body: func(ctx *Ctx) error {
				return ctx.Transform(120*time.Millisecond, 256<<20)
			}},
			{Name: "c", Tenant: "t", MemoryBooked: 64 << 20, Body: func(ctx *Ctx) error {
				return nil
			}},
		}
		for _, fn := range fns {
			tb.p.Register(fn)
		}
		// Advice that changes from call to call, so warm starts resize.
		var advised atomic.Int64
		tb.p.Advisor = advisorFunc(func(req *Request) Advice {
			return Advice{Mem: 64 << 20 << (advised.Add(1) % 3), Use: true}
		})
		ok := true
		check := func() {
			for _, inv := range tb.p.Invokers() {
				if inv.Reserved() < 0 || inv.Reserved() > inv.Capacity() {
					ok = false
				}
				if inv.CacheGrant() < 0 || inv.CacheGrant()+inv.Reserved() > inv.Capacity() {
					ok = false
				}
				if !booksBalanced(inv) {
					ok = false
				}
			}
		}
		tb.env.Go(func() {
			rng := tb.env.NewRand()
			for i := 0; i < n; i++ {
				fn := fns[rng.Intn(len(fns))]
				tb.env.Go(func() {
					tb.p.Invoke(&Request{Function: fn})
				})
				if rng.Intn(3) == 0 {
					tb.env.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
					check()
				}
			}
			tb.env.Sleep(2 * time.Second)
			check()
			// Live sandboxes imply a non-zero reservation.
			for _, inv := range tb.p.Invokers() {
				if inv.SandboxCount() > 0 && inv.Reserved() == 0 {
					ok = false
				}
			}
		})
		tb.env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSwapDegradationInsteadOfOOM(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	// Peak 5% above the advised sandbox: swap, don't kill.
	fn := etlFn("swappy", 100*time.Millisecond, 134<<20)
	tb.p.Register(fn)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Swapped || res.Retried {
		t.Errorf("swapped=%v retried=%v", res.Swapped, res.Retried)
	}
	// ~4.7% overshoot × slowdown 8 ≈ +37% transform time.
	if res.Transform <= 100*time.Millisecond || res.Transform > 200*time.Millisecond {
		t.Errorf("transform=%v, want degraded but bounded", res.Transform)
	}
	if tb.p.Stats().Swaps != 1 {
		t.Errorf("swaps=%d", tb.p.Stats().Swaps)
	}
	if tb.p.Stats().OOMKills != 0 {
		t.Error("swap counted as OOM")
	}
}

// TestOOMRetrySeesWrappedErrors is the regression test for the
// wrapped-sentinel bug: user function bodies (and middleware such as
// the store's Resilient layer) wrap platform errors with %w before
// returning them, and the controller's OOM-retry path must still
// recognize ErrOOM through the wrapping. Before the errors.Is fix in
// Invoke/execute, a wrapped ErrOOM skipped the §5.3 retry entirely and
// surfaced as a failed invocation.
func TestOOMRetrySeesWrappedErrors(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := &Function{
		Name: "wrapper", Tenant: "t", MemoryBooked: 512 << 20, InputType: "none",
		Body: func(ctx *Ctx) error {
			if err := ctx.Transform(50*time.Millisecond, 300<<20); err != nil {
				return fmt.Errorf("transform stage: %w", err)
			}
			return nil
		},
	}
	tb.p.Register(fn)
	// Advisor underpredicts badly, so the first attempt OOMs.
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		res = tb.p.Invoke(&Request{Function: fn})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("wrapped ErrOOM was not retried at booked memory: %v", res.Err)
	}
	if !res.Retried {
		t.Error("invocation not marked retried")
	}
	if res.SandboxMem != 512<<20 {
		t.Errorf("retry sandbox mem=%d, want booked 512MB", res.SandboxMem)
	}
	if st := tb.p.Stats(); st.OOMKills != 1 || st.Retries != 1 || st.Failures != 0 {
		t.Errorf("stats=%+v, want exactly one OOM kill and one retry", st)
	}
}

// shedGate is a test AdmissionController that rejects every request
// with a fixed error.
type shedGate struct{ err error }

func (g shedGate) Admit(req *Request) (func(), error) { return nil, g.err }

// denyRetry is a RetryPolicy refusing every re-execution.
type denyRetry struct{}

func (denyRetry) AllowRetry(req *Request, cause error) bool { return false }

func TestAdmissionShedAccounting(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	errShed := errors.New("test: shed")
	tb.p.Admission = shedGate{err: errShed}
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() {
		res = tb.p.Invoke(&Request{Function: fn})
	})
	tb.env.Run()
	if !errors.Is(res.Err, errShed) {
		t.Fatalf("err=%v, want the gate's shed error", res.Err)
	}
	st := tb.p.Stats()
	if st.Shed != 1 {
		t.Errorf("Shed=%d, want 1", st.Shed)
	}
	// A refusal is not a platform failure: nothing ran, nothing broke.
	if st.Failures != 0 {
		t.Errorf("Failures=%d, want 0 for a shed request", st.Failures)
	}
	if st.ColdStarts != 0 || st.WarmStarts != 0 {
		t.Errorf("shed request started a sandbox: %+v", st)
	}
	// The activation log still records the refused invocation.
	acts := tb.p.Activations(10)
	if len(acts) != 1 {
		t.Fatalf("activations=%d, want 1", len(acts))
	}
	if acts[0].Error == "" {
		t.Error("activation record lost the shed error")
	}
}

func TestOOMRetryDeniedByBudget(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	tb.p.Retry = denyRetry{}
	fn := etlFn("hungry", 50*time.Millisecond, 300<<20) // OOMs under 128 MB advice
	tb.p.Register(fn)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	// The denial surfaces as a typed error wrapping the OOM cause.
	if !errors.Is(res.Err, ErrRetryBudget) {
		t.Fatalf("err=%v, want ErrRetryBudget match", res.Err)
	}
	if !errors.Is(res.Err, ErrOOM) {
		t.Errorf("err=%v does not preserve the ErrOOM cause", res.Err)
	}
	if res.Retried {
		t.Error("denied retry still marked Retried")
	}
	st := tb.p.Stats()
	// The kill counts once; the retry that never ran does not.
	if st.OOMKills != 1 || st.Retries != 0 || st.RetryDenied != 1 {
		t.Errorf("stats=%+v, want OOMKills=1 Retries=0 RetryDenied=1", st)
	}
	if st.Failures != 1 {
		t.Errorf("Failures=%d, want 1 (the invocation did fail)", st.Failures)
	}
	// The activation record is kept for the failed attempt.
	if acts := tb.p.Activations(10); len(acts) != 1 || acts[0].Error == "" {
		t.Errorf("activation log: %+v", acts)
	}
}

func TestOOMRetryAllowedByPolicyCountsOnce(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	var consulted int
	tb.p.Retry = retryFunc(func(req *Request, cause error) bool {
		consulted++
		if !errors.Is(cause, ErrOOM) {
			t.Errorf("policy consulted with cause=%v, want ErrOOM", cause)
		}
		return true
	})
	fn := etlFn("hungry", 50*time.Millisecond, 300<<20)
	tb.p.Register(fn)
	tb.p.Advisor = advisorFunc(func(req *Request) Advice {
		return Advice{Mem: 128 << 20, ShouldCache: false, Use: true}
	})
	var res *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(1<<10), nil, false)
		res = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}})
	})
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("allowed retry failed: %v", res.Err)
	}
	if !res.Retried {
		t.Error("not marked retried")
	}
	if consulted != 1 {
		t.Errorf("policy consulted %d times, want 1", consulted)
	}
	st := tb.p.Stats()
	if st.OOMKills != 1 || st.Retries != 1 || st.RetryDenied != 0 {
		t.Errorf("stats=%+v", st)
	}
}

// retryFunc adapts a function to RetryPolicy.
type retryFunc func(req *Request, cause error) bool

func (f retryFunc) AllowRetry(req *Request, cause error) bool { return f(req, cause) }

// TestKeepAliveOneTimerPerSandbox: a sandbox keeps one keep-alive timer
// however often it is parked. After 1 000 warm invocations the only
// events left are that timer finding the sandbox used since (it moves
// itself to lastUsed + KeepAlive) and the expiry — not one stale
// callback per invocation.
func TestKeepAliveOneTimerPerSandbox(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	var atReply int64
	var lastReply sim.Time
	tb.env.Go(func() {
		for i := 0; i <= 1000; i++ {
			tb.p.Invoke(&Request{Function: fn})
		}
		atReply, lastReply = tb.env.Events(), tb.env.Now()
	})
	end := tb.env.Run()
	if tail := tb.env.Events() - atReply; tail > 2 {
		t.Errorf("%d events after the last reply, want 2 (re-arm + expiry)", tail)
	}
	if want := lastReply + tb.p.cfg.KeepAlive; end != want {
		t.Errorf("run ended at %v, want the expiry at %v", end, want)
	}
	for _, inv := range tb.p.Invokers() {
		if created, expired := inv.Lifecycle(); created != expired || inv.Reserved() != 0 {
			t.Errorf("node %d: created=%d expired=%d reserved=%d", inv.Node(), created, expired, inv.Reserved())
		}
	}
}

// TestKeepAliveExactExpiry: however the lazily re-armed timer and the
// uses interleave, the sandbox lives until exactly lastUsed + KeepAlive.
func TestKeepAliveExactExpiry(t *testing.T) {
	ka := DefaultConfig().KeepAlive
	type use struct{ idle, run time.Duration } // idle time before the call, body length
	cases := []struct {
		name string
		uses []use
	}{
		{"parked once", []use{{0, 0}}},
		{"re-parked inside one period", []use{{0, 0}, {100 * time.Second, 0}, {100 * time.Second, time.Second}, {250 * time.Second, 0}}},
		{"timer fires on an idle sandbox used since, twice", []use{{0, 0}, {ka - time.Second, 0}, {ka - time.Second, 0}}},
		{"timer fires while busy", []use{{0, 0}, {ka - time.Second, 2 * time.Second}}},
		{"busy at the timer, then re-parked twice", []use{{0, 0}, {ka - time.Second, 2 * time.Second}, {time.Minute, 0}, {time.Minute, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(1, 8<<30)
			fn := timedFn(256 << 20)
			tb.p.Register(fn)
			tb.env.Go(func() {
				var res *Result
				for i, u := range tc.uses {
					tb.env.Sleep(u.idle)
					res = tb.p.Invoke(&Request{Function: fn, Args: map[string]float64{"run": float64(u.run)}})
					if res.Err != nil || res.ColdStart != (i == 0) {
						t.Errorf("use %d: err=%v cold=%v", i, res.Err, res.ColdStart)
						return
					}
				}
				// The last park happened at res.End, which is now.
				inv := tb.p.InvokerOn(res.Node)
				tb.env.Sleep(ka - time.Nanosecond)
				if _, expired := inv.Lifecycle(); expired != 0 || inv.Reserved() != 256<<20 || inv.SandboxCount() != 1 {
					t.Errorf("1ns before lastUsed+KeepAlive: expired=%d reserved=%d sandboxes=%d, want alive",
						expired, inv.Reserved(), inv.SandboxCount())
				}
				tb.env.Sleep(2 * time.Nanosecond)
				if _, expired := inv.Lifecycle(); expired != 1 || inv.Reserved() != 0 || inv.SandboxCount() != 0 {
					t.Errorf("1ns after lastUsed+KeepAlive: expired=%d reserved=%d sandboxes=%d, want gone",
						expired, inv.Reserved(), inv.SandboxCount())
				}
			})
			tb.env.Run()
		})
	}
}

// TestNodeCrashWithKeepAliveTimersPending: sandboxes killed by a node
// failure are retired once — not again when their keep-alive timers
// fire, nor when an invocation that outlived the outage returns — and
// the revived node starts from empty books.
func TestNodeCrashWithKeepAliveTimersPending(t *testing.T) {
	tb := newTestbedN(1, 8<<30, 1)
	inv := tb.p.Invokers()[0]
	fn := timedFn(256 << 20)
	tb.p.Register(fn)
	// rescued outgrows its sandbox while the node is down: the Monitor
	// resizes a sandbox that is already dead.
	rescued := &Function{Name: "rescued", Tenant: "t", MemoryBooked: 256 << 20,
		Body: func(ctx *Ctx) error {
			if err := ctx.Transform(2500*time.Millisecond, 32<<20); err != nil {
				return err
			}
			return ctx.Transform(5*time.Second, 200<<20)
		}}
	tb.p.Register(rescued)
	tb.p.MonitorEnabled = true
	tb.p.Advisor = advisorFunc(func(*Request) Advice { return Advice{Mem: 96 << 20, Use: true} })
	ka := tb.p.cfg.KeepAlive
	empty := func(when string, created int64) {
		t.Helper()
		c, e := inv.Lifecycle()
		if c != created || e != created || inv.Reserved() != 0 || inv.SandboxCount() != 0 || inv.BookedWaste() != 0 {
			t.Errorf("%s: created=%d expired=%d (want both %d) reserved=%d sandboxes=%d waste=%d",
				when, c, e, created, inv.Reserved(), inv.SandboxCount(), inv.BookedWaste())
		}
	}
	tb.env.Go(func() {
		// Two sandboxes busy across the outage, two idle with timers
		// pending.
		busy := invokeAsync(tb, &Request{Function: fn, Args: map[string]float64{"run": float64(10 * time.Second)}})
		busy2 := invokeAsync(tb, &Request{Function: rescued})
		tb.p.InvokeParallel([]*Request{{Function: fn}, {Function: fn}})
		tb.env.Sleep(2 * time.Second)
		if inv.SandboxCount() != 4 || inv.BookedWaste() != 4*(160<<20) {
			t.Errorf("before the crash: sandboxes=%d waste=%d", inv.SandboxCount(), inv.BookedWaste())
		}
		tb.net.SetNodeDown(inv.Node(), true)
		inv.Crash()
		empty("down", 4)
		tb.env.Sleep(2 * time.Second)
		tb.net.SetNodeDown(inv.Node(), false)
		// The busy invocations return to a revived node; their sandboxes
		// stay dead.
		busy.Wait()
		if res := busy2.Wait(); !res.Rescued {
			t.Errorf("rescue did not run: %+v", res)
		}
		empty("after the outlived invocations", 4)
		// The dead sandboxes' timers fire and find nothing to do.
		tb.env.Sleep(ka + time.Minute)
		empty("after the stale timers", 4)

		res := tb.p.Invoke(&Request{Function: fn})
		if res.Err != nil || !res.ColdStart {
			t.Errorf("after the restart: err=%v cold=%v, want a cold start", res.Err, res.ColdStart)
		}
		if inv.Reserved() != 96<<20 || inv.SandboxCount() != 1 || inv.BookedWaste() != 160<<20 {
			t.Errorf("new sandbox: reserved=%d sandboxes=%d waste=%d", inv.Reserved(), inv.SandboxCount(), inv.BookedWaste())
		}
		tb.env.Sleep(ka + time.Nanosecond)
		empty("after the new sandbox expired", 5)
	})
	tb.env.Run()
}

// TestSandboxBooksMatchReferenceModel drives one invoker with a seeded
// random schedule — two functions, parallel calls, advice that resizes
// warm sandboxes, OOM kills, node crashes under running invocations and
// under cold starts, idle gaps on both sides of the keep-alive — and
// after every step compares the invoker's books with a reference model:
// the sandboxes that should be alive, each with its limit and the
// instant it was last parked. A modelled sandbox dies at exactly
// lastUsed + KeepAlive; some steps stop 1 ns before the next such
// instant and look again 2 ns later.
func TestSandboxBooksMatchReferenceModel(t *testing.T) {
	const mb = 1 << 20
	tb := newTestbedN(1, 64<<30, 1)
	inv := tb.p.Invokers()[0]
	ka := tb.p.cfg.KeepAlive

	type use struct {
		req *Request
		sb  *Sandbox
	}
	var mu sync.Mutex
	var uses []use // every body run of the current step, in start order
	body := func(ctx *Ctx) error {
		mu.Lock()
		uses = append(uses, use{ctx.req, ctx.sb})
		mu.Unlock()
		return ctx.Transform(time.Duration(ctx.Arg("run")), int64(ctx.Arg("peak")))
	}
	fns := []*Function{
		{Name: "f", Tenant: "t", MemoryBooked: 512 * mb, Body: body},
		{Name: "g", Tenant: "t", MemoryBooked: 256 * mb, Body: body},
	}
	for _, fn := range fns {
		tb.p.Register(fn)
	}
	tb.p.Advisor = advisorFunc(func(req *Request) Advice { return Advice{Mem: int64(req.Args["mem"]), Use: true} })

	// The reference model.
	type ref struct {
		fn       *Function
		mem      int64
		lastUsed sim.Time
	}
	model := map[*Sandbox]*ref{}
	nextExpiry := func() (at sim.Time, ok bool) {
		for _, m := range model {
			if !ok || m.lastUsed+ka < at {
				at, ok = m.lastUsed+ka, true
			}
		}
		return at, ok
	}
	var expiries, resizes, maxPerFn int
	check := func(step int) {
		t.Helper()
		now := tb.env.Now()
		for sb, m := range model {
			if m.lastUsed+ka == now {
				t.Fatalf("step %d: the schedule stopped on an expiry instant", step)
			}
			if m.lastUsed+ka < now {
				delete(model, sb)
				expiries++
			}
		}
		var waste, mem int64
		perFn := map[*Function]int{}
		for _, m := range model {
			waste += max(0, m.fn.MemoryBooked-m.mem)
			mem += m.mem
			perFn[m.fn]++
			maxPerFn = max(maxPerFn, perFn[m.fn])
		}
		if inv.SandboxCount() != len(model) || inv.BookedWaste() != waste || inv.Reserved() != mem {
			t.Errorf("step %d at %v: sandboxes=%d waste=%d reserved=%d, model says %d, %d, %d",
				step, now, inv.SandboxCount(), inv.BookedWaste(), inv.Reserved(), len(model), waste, mem)
		}
		for fn, list := range inv.sandboxes {
			for _, sb := range list {
				m := model[sb]
				if m == nil || m.fn != fn || sb.fn != fn || sb.state != sandboxIdle || sb.mem != m.mem || sb.lastUsed != m.lastUsed {
					t.Errorf("step %d at %v: indexed sandbox %+v, model says %+v", step, now, *sb, m)
				}
			}
			if len(list) != perFn[fn] {
				t.Errorf("step %d at %v: %d sandboxes indexed for %s, model says %d", step, now, len(list), fn.Name, perFn[fn])
			}
		}
	}

	tb.env.Go(func() {
		rng := rand.New(rand.NewSource(18))
		request := func(run time.Duration, oom bool) *Request {
			fn := fns[rng.Intn(len(fns))]
			mem, peak := int64(64*(1+rng.Intn(8)))*mb, int64(32*mb)
			if oom {
				// Killed in anything smaller than the booked size, which
				// is what the retry asks for.
				mem, peak = 64*mb, fn.MemoryBooked
			}
			return &Request{Function: fn, Args: map[string]float64{
				"mem": float64(mem), "peak": float64(peak), "run": float64(run)}}
		}
		for step := 0; step < 400 && !t.Failed(); step++ {
			switch k := rng.Intn(10); {
			case k == 0: // node crash under a running body (2 s in) or a cold start (0.2 s in)
				req := request(5*time.Second, false)
				f := invokeAsync(tb, req)
				tb.env.Sleep([]time.Duration{200 * time.Millisecond, 2 * time.Second}[rng.Intn(2)])
				tb.net.SetNodeDown(inv.Node(), true)
				inv.Crash()
				clear(model)
				tb.env.Sleep(time.Second)
				tb.net.SetNodeDown(inv.Node(), false)
				f.Wait()
				uses = uses[:0]
			case k <= 2 && len(model) > 0: // look on both sides of the next expiry
				at, _ := nextExpiry()
				tb.env.Sleep(at - time.Nanosecond - tb.env.Now())
				check(step)
				tb.env.Sleep(2 * time.Nanosecond)
			case k <= 4: // idle gap, up to past the keep-alive
				tb.env.Sleep(time.Duration(rng.Int63n(int64(ka + ka/4))))
			default: // 1-3 parallel invocations, one in five with an OOM kill
				reqs := make([]*Request, 1+rng.Intn(3))
				for i := range reqs {
					reqs[i] = request(time.Duration(rng.Intn(300))*time.Millisecond, rng.Intn(5) == 0)
				}
				parked := map[*Request]sim.Time{} // Invoke returns at the instant it parks
				for i, res := range tb.p.InvokeParallel(reqs) {
					parked[reqs[i]] = res.End
				}
				retry := map[*Request]bool{}
				for _, u := range uses {
					fn := u.req.Function
					m := model[u.sb]
					if m == nil { // cold start; a retry asks for the booked size
						m = &ref{fn: fn, mem: fn.MemoryBooked}
						model[u.sb] = m
					}
					if !retry[u.req] { // advised: created at, or resized to, the clamped advice
						advice := min(int64(u.req.Args["mem"]), fn.MemoryBooked)
						if m.mem != advice && m.lastUsed != 0 {
							resizes++
						}
						m.mem = advice
					}
					retry[u.req] = true
					if int64(u.req.Args["peak"]) > m.mem {
						delete(model, u.sb) // OOM kill
					}
					m.lastUsed = parked[u.req]
				}
				uses = uses[:0]
				tb.env.Sleep(time.Duration(rng.Intn(2000)) * time.Millisecond)
			}
			check(step)
		}
		if st := tb.p.Stats(); st.OOMKills == 0 || expiries == 0 || resizes == 0 || maxPerFn < 2 {
			t.Errorf("schedule too tame: oomKills=%d expiries=%d resizes=%d maxPerFn=%d", st.OOMKills, expiries, resizes, maxPerFn)
		}
	})
	tb.env.Run()
}

// TestIdleSandboxSelection: §6.5's order — smallest memory gap, then
// most recently used — and a full tie goes to the earliest-created
// sandbox every time.
func TestIdleSandboxSelection(t *testing.T) {
	tb := newTestbedN(1, 8<<30, 1)
	inv := tb.p.Invokers()[0]
	fn := emptyFn(512 << 20)
	tb.p.Register(fn)
	tb.env.Go(func() {
		create := func(mem int64) *Sandbox {
			sb, _, err := inv.createSandbox(fn, mem)
			if err != nil {
				t.Error(err)
			}
			return sb
		}
		first, second, third := create(128<<20), create(128<<20), create(256<<20)
		inv.parkSandbox(second)
		inv.parkSandbox(first)
		inv.parkSandbox(third)
		for i := 0; i < 100; i++ {
			if got := inv.idleSandbox(fn, 128<<20); got != first {
				t.Fatalf("full tie, try %d: the later-created sandbox was chosen", i)
			}
		}
		if got := inv.idleSandbox(fn, 200<<20); got != third {
			t.Error("smallest memory gap did not win")
		}
		// Equal gaps of 64 MB either side: first and second still tie on
		// lastUsed with third, so creation order decides again.
		if got := inv.idleSandbox(fn, 192<<20); got != first {
			t.Error("equal gaps and equal lastUsed: want the earliest-created")
		}
		tb.env.Sleep(time.Second)
		if !inv.claim(second) {
			t.Error("claim failed")
		}
		inv.parkSandbox(second)
		if got := inv.idleSandbox(fn, 128<<20); got != second {
			t.Error("equal gaps: the most recently used did not win")
		}
		if mem, ok := inv.IdleSandboxMem(fn, 512<<20); !ok || mem != 256<<20 {
			t.Errorf("IdleSandboxMem=%d,%v", mem, ok)
		}
	})
	tb.env.Run()
}

// TestResizeRacesBookReaders: one process resizes its (busy) sandbox
// while another reads the node's books. Meaningful under -race only:
// sb.mem used to be written outside the invoker's lock.
func TestResizeRacesBookReaders(t *testing.T) {
	tb := newTestbedN(1, 8<<30, 1)
	inv := tb.p.Invokers()[0]
	fn := emptyFn(512 << 20)
	tb.p.Register(fn)
	ready := sim.NewFuture[*Sandbox](tb.env)
	tb.env.Go(func() {
		sb, _, err := inv.createSandbox(fn, 128<<20)
		if err != nil {
			t.Error(err)
		}
		ready.Set(sb)
		for i := 0; i < 200; i++ {
			if _, err := inv.resize(sb, int64(128+i%2*64)<<20); err != nil {
				t.Error(err)
			}
		}
		inv.parkSandbox(sb)
	})
	tb.env.Go(func() {
		ready.Wait()
		for i := 0; i < 200; i++ {
			if w := inv.BookedWaste(); w != 384<<20 && w != 320<<20 {
				t.Errorf("BookedWaste=%d mid-resize", w)
			}
			inv.IdleSandboxMem(fn, 128<<20)
		}
	})
	tb.env.Run()
}

// TestReusedCtxStartsClean: a warm sandbox hands its next body the Ctx
// the last one used, reset: a body that does nothing reports no phase,
// byte, op, peak, swap or rescue of the invocation before it.
func TestReusedCtxStartsClean(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	var ctxs []*Ctx
	fn := &Function{
		Name: "busy-then-idle", Tenant: "t", MemoryBooked: 256 << 20, InputType: "none",
		Body: func(ctx *Ctx) error {
			ctxs = append(ctxs, ctx)
			if ctx.Arg("work") == 0 {
				return nil
			}
			if _, err := ctx.Extract(ctx.InputKeys()[0]); err != nil {
				return err
			}
			// 5 % over the sandbox: it swaps, within swapTolerance.
			if err := ctx.Transform(10*time.Millisecond, 256<<20+256<<20/20); err != nil {
				return err
			}
			return ctx.Load("out/a", Blob{Size: 4 << 10}, KindFinal)
		},
	}
	tb.p.Register(fn)
	var busy, idle *Result
	tb.env.Go(func() {
		tb.store.Put(2, "in/a", kvstore.Synthetic(16<<10), nil, false)
		busy = tb.p.Invoke(&Request{Function: fn, InputKeys: []string{"in/a"}, Args: map[string]float64{"work": 1}})
		idle = tb.p.Invoke(&Request{Function: fn})
	})
	tb.env.Run()
	if busy.Err != nil || idle.Err != nil {
		t.Fatalf("errs: %v %v", busy.Err, idle.Err)
	}
	if !busy.Swapped || busy.ReadOps != 1 || busy.WriteOps != 1 || busy.PeakMem == 0 {
		t.Fatalf("first invocation did not work: %+v", busy)
	}
	if len(ctxs) != 2 || ctxs[0] != ctxs[1] || idle.ColdStart {
		t.Fatalf("second invocation did not reuse the warm sandbox's Ctx (cold %v)", idle.ColdStart)
	}
	if idle.Extract != 0 || idle.Transform != 0 || idle.Load != 0 || idle.BytesIn != 0 || idle.BytesOut != 0 ||
		idle.ReadOps != 0 || idle.WriteOps != 0 || idle.PeakMem != 0 || idle.Swapped || idle.Rescued {
		t.Errorf("reused Ctx carried counters over: %+v", idle)
	}
}

// TestWarmInvocationAllocCeiling pins the allocations of a warm
// invocation through the bare platform: the Result. The Ctx is the
// sandbox's and the request is the caller's.
func TestWarmInvocationAllocCeiling(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := emptyFn(256 << 20)
	tb.p.Register(fn)
	req := &Request{Function: fn}
	var allocs float64
	tb.env.Go(func() {
		tb.p.Invoke(req) // cold start, pools filled
		allocs = testing.AllocsPerRun(200, func() { tb.p.Invoke(req) })
	})
	tb.env.Run()
	if allocs > 1 {
		if lossyPools() {
			t.Skipf("%.1f allocs with sync.Pool dropping items (race detector): pooled timers count as allocations", allocs)
		}
		t.Errorf("warm invocation: %.1f allocs, want at most 1", allocs)
	}
}

// lossyPools reports whether sync.Pool is discarding what it is handed,
// which it does at random under the race detector.
func lossyPools() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestFunctionID: Register builds the id once (no allocation per call
// afterwards); an unregistered function still answers.
func TestFunctionID(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := &Function{Name: "resize", Tenant: "tenant-with-a-long-name"}
	if fn.ID() != "tenant-with-a-long-name/resize" {
		t.Errorf("unregistered id=%q", fn.ID())
	}
	tb.p.Register(fn)
	if fn.ID() != "tenant-with-a-long-name/resize" {
		t.Errorf("registered id=%q", fn.ID())
	}
	var id string
	if n := testing.AllocsPerRun(100, func() { id = fn.ID() }); n != 0 {
		t.Errorf("ID() of a registered function allocates %.0f times (%s)", n, id)
	}
}
