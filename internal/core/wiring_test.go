package core

import (
	"fmt"
	"testing"

	"ofc/internal/faas"
	"ofc/internal/overload"
	"ofc/internal/store"
)

// TestOptionsWiring: what NewSystem builds is what Options says — the
// proxy's middleware stack (Instrumented on top, Resilient over the
// cluster or nothing over the passthrough, Chunked where a 40 MB
// cacheable final output is striped), whether a write under "lazy/"
// leaves a shadow in the RSDS, and whether overload control is
// installed.
func TestOptionsWiring(t *testing.T) {
	const kv, rsds = "*kvstore.Cluster", "*store.Passthrough"
	cases := []struct {
		name        string
		tune        func(*Options)
		engine      string
		wantResil   bool
		wantStriped bool
		wantShadow  bool
		wantOver    bool
	}{
		{"default", func(*Options) {}, kv, true, false, true, false},
		{"CacheOff", func(o *Options) { o.CacheOff = true }, rsds, false, false, false, false},
		{"Chunking", func(o *Options) { o.Chunking = true }, kv, true, true, true, false},
		{"RelaxedPrefixes", func(o *Options) { o.RelaxedPrefixes = []string{"lazy/"} }, kv, true, false, false, false},
		{"Overload", func(o *Options) {
			o.Overload = &OverloadConfig{
				Admission:  overload.DefaultAdmissionConfig(),
				Budget:     overload.DefaultBudgetConfig(),
				Controller: overload.DefaultControllerConfig(),
			}
		}, kv, true, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := testOptions(1)
			c.tune(&opts)
			sys := NewSystem(opts)

			rc := sys.RC
			if rc.Backend() != store.Backend(rc.inst) {
				t.Errorf("top of the stack is %T, want the Instrumented layer", rc.Backend())
			}
			if got := fmt.Sprintf("%T", rc.base); got != c.engine {
				t.Errorf("engine %s, want %s", got, c.engine)
			}
			if got := rc.resil != nil; got != c.wantResil {
				t.Errorf("Resilient layer present = %v, want %v", got, c.wantResil)
			}
			if got := rc.durable; got != (c.engine == rsds) {
				t.Errorf("proxy durable = %v, want %v", got, !got)
			}
			if got := sys.Overload != nil; got != c.wantOver {
				t.Errorf("sys.Overload set = %v, want %v", got, c.wantOver)
			}
			if got := sys.Platform.Admission != nil; got != c.wantOver {
				t.Errorf("Platform.Admission set = %v, want %v", got, c.wantOver)
			}

			final := faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}
			sys.Env.Go(func() {
				defer sys.Env.Stop()
				w := sys.WorkerNodes[0]
				if sys.KV != nil {
					for i, node := range sys.WorkerNodes {
						sys.KV.SetMemoryLimit(node, 1<<30)
						sys.Platform.Invokers()[i].SetCacheGrant(1 << 30)
					}
				}
				// The checks run before this process blocks, so the
				// persistor scheduled by each Put has not run yet.
				if err := sys.RC.Put(w, "big/out", faas.Blob{Size: 40 << 20}, final); err != nil {
					t.Fatalf("40 MB put: %v", err)
				}
				striped := false
				if sys.KV != nil {
					_, striped = sys.KV.MasterOf("big/out#0")
				}
				if striped != c.wantStriped {
					t.Errorf("40 MB final striped = %v, want %v", striped, c.wantStriped)
				}
				if err := sys.RC.Put(w, "lazy/out", faas.Blob{Size: 1 << 20}, final); err != nil {
					t.Fatalf("lazy/ put: %v", err)
				}
				m, ok := sys.RSDS.MetaOf("lazy/out")
				if shadow := ok && m.IsShadow(); shadow != c.wantShadow {
					t.Errorf("lazy/out shadow in the RSDS = %v (%+v), want %v", shadow, m, c.wantShadow)
				}
			})
			sys.Env.Run()
		})
	}
}
