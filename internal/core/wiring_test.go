package core

import (
	"fmt"
	"strings"
	"testing"

	"ofc/internal/faas"
	"ofc/internal/overload"
	"ofc/internal/store"
)

// TestOptionsWiring: what NewSystem builds is what Options says — the
// proxy's middleware chain, whether a 40 MB cacheable final output is
// striped, whether a write under "lazy/" leaves a shadow in the RSDS,
// and whether overload control is installed.
func TestOptionsWiring(t *testing.T) {
	cases := []struct {
		name        string
		tune        func(*Options)
		chain       string
		wantStriped bool
		wantShadow  bool
		wantOver    bool
	}{
		{"default", func(*Options) {},
			"*store.Instrumented→*store.Resilient→*kvstore.Cluster", false, true, false},
		{"CacheOff", func(o *Options) { o.CacheOff = true },
			"*store.Instrumented→*store.Passthrough", false, false, false},
		{"Chunking", func(o *Options) { o.Chunking = true },
			"*store.Instrumented→*store.Chunked→*store.Resilient→*kvstore.Cluster", true, true, false},
		{"RelaxedPrefixes", func(o *Options) { o.RelaxedPrefixes = []string{"lazy/"} },
			"*store.Instrumented→*store.Resilient→*kvstore.Cluster", false, false, false},
		{"Overload", func(o *Options) {
			o.Overload = &OverloadConfig{
				Admission:  overload.DefaultAdmissionConfig(),
				Budget:     overload.DefaultBudgetConfig(),
				Controller: overload.DefaultControllerConfig(),
			}
		}, "*store.Instrumented→*store.Resilient→*kvstore.Cluster", false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := testOptions(1)
			c.tune(&opts)
			sys := NewSystem(opts)

			var layers []string
			for b := sys.RC.Backend(); b != nil; {
				layers = append(layers, fmt.Sprintf("%T", b))
				w, ok := b.(store.Wrapper)
				if !ok {
					break
				}
				b = w.Unwrap()
			}
			if got := strings.Join(layers, "→"); got != c.chain {
				t.Errorf("middleware chain %s, want %s", got, c.chain)
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
