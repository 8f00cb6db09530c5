package core

import (
	"testing"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/simnet"
	"ofc/internal/store"
)

// TestCacheOffSystem runs the stack with the passthrough engine: the
// vanilla baseline as a backend. Every access pays the RSDS, nothing
// counts as a hit, no write-back machinery runs — and the system
// otherwise behaves identically.
func TestCacheOffSystem(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 1
	opts.Workers = 3
	opts.NodeCapacity = 4 << 30
	opts.CacheOff = true
	sys := NewSystem(opts)

	if sys.KV != nil {
		t.Fatal("cache-off system must not build a cache cluster")
	}
	if !store.IsDurable(sys.Backend) {
		t.Fatal("cache-off backend must be durable")
	}
	if len(sys.Agents()) != 0 {
		t.Fatalf("cache-off system has %d cache agents, want 0", len(sys.Agents()))
	}

	fn := imageFn("blur", 20*time.Millisecond)
	sys.Register(fn)
	sys.Trainer.Pretrain(fn, synthSamples(sys.Pred.Schema(fn), 300, 3))

	var first, second *faas.Result
	sys.Run(func() {
		sys.RSDS.Put(sys.CtrlNode, "img/1", kvstore.Synthetic(64<<10), nil, false)
		sys.RSDS.SetFeatures("img/1", map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3})
		req := func() *faas.Request {
			return &faas.Request{Function: fn, InputKeys: []string{"img/1"},
				Args:          map[string]float64{"sigma": 2},
				InputFeatures: map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3}}
		}
		first = sys.Platform.Invoke(req())
		sys.Env.Sleep(time.Second)
		second = sys.Platform.Invoke(req())
	})
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v %v", first.Err, second.Err)
	}
	// Both reads pay the RSDS cost — there is no cache to hit.
	if first.Extract < 35*time.Millisecond || second.Extract < 35*time.Millisecond {
		t.Errorf("extracts %v / %v, want RSDS cost both times", first.Extract, second.Extract)
	}
	// Writes are synchronous write-throughs (~115ms Swift PUT), not
	// 11ms shadow acks.
	if first.Load < 100*time.Millisecond {
		t.Errorf("load=%v, want synchronous RSDS cost", first.Load)
	}
	stats := sys.RC.Stats()
	if stats.Hits != 0 || stats.Admissions != 0 || stats.WriteBacks != 0 {
		t.Errorf("cache activity in cache-off mode: %+v", stats)
	}
	if stats.Misses < 2 || stats.BypassWrites < 2 {
		t.Errorf("stats=%+v, want ≥2 misses and ≥2 bypass writes", stats)
	}
	if hr := sys.RC.HitRatio(); hr != 0 {
		t.Errorf("hit ratio %v, want 0", hr)
	}
	// The output is durably in the RSDS, never a shadow.
	m, ok := sys.RSDS.MetaOf("out/img/1")
	if !ok || m.IsShadow() || m.Size != 32<<10 {
		t.Errorf("output not persisted: ok=%v meta=%+v", ok, m)
	}
}

// TestRouterByteMajorityLocality: with inputs mastered on different
// nodes, the router targets the node holding the majority of the input
// *bytes*, not whichever node masters the first key.
func TestRouterByteMajorityLocality(t *testing.T) {
	sys := newSystem(1)
	w0, w1 := sys.WorkerNodes[0], sys.WorkerNodes[1]
	fn := &faas.Function{Name: "join", Tenant: "t", MemoryBooked: 256 << 20, InputType: "none"}

	sys.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		// First key is small and lives on w0; the bulk of the bytes
		// live on w1.
		stage := []struct {
			key  string
			node simnet.NodeID
			size int64
		}{
			{"in/a", w0, 1 << 10},
			{"in/b", w1, 8 << 20},
			{"in/c", w1, 4 << 20},
		}
		for _, s := range stage {
			if _, err := sys.KV.Write(s.node, s.key, kvstore.Synthetic(s.size), nil, s.node); err != nil {
				t.Fatalf("stage %s: %v", s.key, err)
			}
		}
		pv, _ := store.PlacementViewOf(sys.Backend)
		r := NewRouter(pv)
		req := &faas.Request{Function: fn, InputKeys: []string{"in/a", "in/b", "in/c"}}
		inv := r.Route(req, sys.Platform.Invokers(), nil)
		if inv == nil {
			t.Fatal("router returned nil despite local capacity")
		}
		if inv.Node() != w1 {
			t.Errorf("routed to node %d, want byte-majority node %d", inv.Node(), w1)
		}
		// Old behavior check: key[0] alone would have picked w0.
		one := r.Route(&faas.Request{Function: fn, InputKeys: []string{"in/a"}}, sys.Platform.Invokers(), nil)
		if one == nil || one.Node() != w0 {
			t.Errorf("single-key locality broken: %v", one)
		}
	})
}

// fixedPlacement is a PlacementView over a fixed table.
type fixedPlacement map[string]store.Location

func (f fixedPlacement) MasterOf(key string) (simnet.NodeID, bool) {
	return f[key].Node, f[key].OK
}

func (f fixedPlacement) Locate(keys []string) []store.Location {
	out := make([]store.Location, len(keys))
	for i, k := range keys {
		out[i] = f[k]
	}
	return out
}

// TestRouterDataNodeTieBreak: equal byte weights go to the lowest node
// id, uncached keys and empty placements are handled, and node ids past
// the on-stack table still count.
func TestRouterDataNodeTieBreak(t *testing.T) {
	r := NewRouter(fixedPlacement{
		"a": {Node: 5, Size: 4 << 10, OK: true},
		"b": {Node: 3, Size: 4 << 10, OK: true},
		"c": {Node: 40, Size: 1 << 10, OK: true},
		"d": {Node: 40, Size: 8 << 10, OK: true},
		"z": {Node: 2, Size: 0, OK: true},
	})
	for _, tc := range []struct {
		keys []string
		want int
	}{
		{[]string{"a", "b"}, 3},
		{[]string{"b", "a"}, 3},
		{[]string{"a", "b", "c"}, 3},
		{[]string{"a", "c", "d", "b"}, 40},
		{[]string{"missing", "a"}, 5},
		{[]string{"missing"}, -1},
		{[]string{"z"}, 2},
		{nil, -1},
	} {
		if got := r.dataNode(tc.keys); got != tc.want {
			t.Errorf("dataNode(%v)=%d, want %d", tc.keys, got, tc.want)
		}
	}
}
