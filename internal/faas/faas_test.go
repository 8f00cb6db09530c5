package faas

import (
	"errors"
	"fmt"
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

func newTestbed(seed int64, capacity int64) *testbed {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DefaultConfig())
	net.AddNode("ctrl")    // 0
	net.AddNode("storage") // 1
	for i := 0; i < 3; i++ {
		net.AddNode("worker")
	}
	store := objstore.New(net, 1, objstore.SwiftProfile())
	p := New(net, 0, DefaultConfig())
	storage := NewRSDSStorage(store)
	for i := 2; i < 5; i++ {
		p.AddInvoker(simnet.NodeID(i), capacity, storage)
	}
	return &testbed{env: env, net: net, p: p, store: store}
}

// emptyFn is a no-op function.
func emptyFn(booked int64) *Function {
	return &Function{
		Name: "empty", Tenant: "t", MemoryBooked: booked, InputType: "none",
		Body: func(ctx *Ctx) error { return nil },
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
	if d := cold.Duration(); d < tb.p.cfg.ColdStart {
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
	// Without a governor the platform takes the grant directly.
	fn := emptyFn(512 << 20)
	tb.p.Register(fn)
	var res *Result
	tb.env.Go(func() { res = tb.p.Invoke(&Request{Function: fn}) })
	tb.env.Run()
	if res.Err != nil {
		t.Fatalf("invoke: %v", res.Err)
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
		got, ok := tb.p.Activation(a.ID)
		if !ok || got.ID != a.ID {
			t.Errorf("lookup %s failed", a.ID)
		}
	}
	if _, ok := tb.p.Activation("act-99999999"); ok {
		t.Error("lookup of unknown id succeeded")
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
		if total == 0 {
			continue
		}
		oldest := total - retained + 1
		if a, ok := l.get(activationID(uint64(oldest))); !ok || a.Node != oldest {
			t.Errorf("total=%d: oldest retained %d: ok=%v node=%d", total, oldest, ok, a.Node)
		}
		if a, ok := l.get(activationID(uint64(total))); !ok || a.Node != total {
			t.Errorf("total=%d: newest %d: ok=%v node=%d", total, total, ok, a.Node)
		}
		// oldest-1 is the first evicted record, or number 0, which never
		// existed.
		if _, ok := l.get(activationID(uint64(oldest - 1))); ok {
			t.Errorf("total=%d: record %d found past eviction", total, oldest-1)
		}
		if _, ok := l.get(activationID(uint64(total + 1))); ok {
			t.Errorf("total=%d: record %d found before it was filed", total, total+1)
		}
	}
	for _, id := range []string{"", "act-", "act-1", "act-+0000017", "run-00000017", "act-000000017"} {
		if _, ok := l.get(id); ok {
			t.Errorf("malformed id %q found a record", id)
		}
	}
}

func TestRegisteredSequence(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	produce := &Function{Name: "produce", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error {
			return ctx.Load("pl/"+ctx.PipelineID()+"/mid", Blob{Size: 2 << 10}, KindIntermediate)
		}}
	consume := &Function{Name: "consume", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error {
			if _, err := ctx.Extract(ctx.InputKeys()[0]); err != nil {
				return err
			}
			return ctx.Load("pl/"+ctx.PipelineID()+"/final", Blob{Size: 1 << 10}, KindFinal)
		}}
	tb.p.Register(produce)
	tb.p.Register(consume)
	seq := tb.p.RegisterSequence("t", "prodcons", produce, consume)
	if got, ok := tb.p.LookupSequence("t/prodcons"); !ok || got != seq {
		t.Fatal("sequence not registered")
	}
	var results []*Result
	tb.env.Go(func() {
		results = seq.Invoke("sq-1", nil, nil, func(stage int, prev *Result) []string {
			return []string{"pl/sq-1/mid"}
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
		t.Error("stages overlapped")
	}
}

// Property: under any random mix of concurrent invocations, the
// invoker's books stay balanced — reserved equals the sum of live
// sandbox limits, never exceeds capacity, and the cache grant never
// overlaps reservations.
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
		ok := true
		check := func() {
			for _, inv := range tb.p.Invokers() {
				if inv.Reserved() < 0 || inv.Reserved() > inv.Capacity() {
					ok = false
				}
				if inv.CacheGrant() < 0 || inv.CacheGrant()+inv.Reserved() > inv.Capacity() {
					ok = false
				}
				if inv.BookedWaste() < 0 {
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

func TestInvokeAsync(t *testing.T) {
	tb := newTestbed(1, 8<<30)
	fn := &Function{Name: "async", Tenant: "t", MemoryBooked: 128 << 20,
		Body: func(ctx *Ctx) error { return ctx.Transform(100*time.Millisecond, 64<<20) }}
	tb.p.Register(fn)
	tb.env.Go(func() {
		f1 := tb.p.InvokeAsync(&Request{Function: fn})
		f2 := tb.p.InvokeAsync(&Request{Function: fn})
		start := tb.env.Now()
		r1, r2 := f1.Wait(), f2.Wait()
		if r1.Err != nil || r2.Err != nil {
			t.Errorf("errs: %v %v", r1.Err, r2.Err)
		}
		// Both ran concurrently: waiting for both takes ~one duration.
		if wall := tb.env.Now() - start; wall > 900*time.Millisecond {
			t.Errorf("async invocations serialized: wall=%v", wall)
		}
	})
	tb.env.Run()
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
