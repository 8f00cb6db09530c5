package objstore

import (
	"errors"
	"testing"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

func setup(env *sim.Env, p Profile) (*Store, *simnet.Network) {
	net := simnet.New(env)
	net.AddNode("worker")
	net.AddNode("storage")
	return New(net, 1, p), net
}

func TestPutGetRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		ver := s.Put(0, "bucket/img", kvstore.Bytes([]byte("jpegdata")), map[string]string{"ct": "image/jpeg"}, false)
		if ver != 1 {
			t.Errorf("ver=%d", ver)
		}
		blob, meta, err := s.Get(0, "bucket/img", false)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob.Data) != "jpegdata" {
			t.Error("payload mismatch")
		}
		if meta.IsShadow() {
			t.Error("fresh put is shadow")
		}
		if meta.UserMeta["ct"] != "image/jpeg" {
			t.Errorf("usermeta=%v", meta.UserMeta)
		}
	})
	env.Run()
}

func TestGetLatencyProfile(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(16<<10), nil, false)
		start := env.Now()
		s.Get(0, "k", false)
		took := env.Now() - start
		// 16 kB from Swift: ≈ ReadBase + transfer; must land around
		// 40 ms, the calibration for wand_edge's Extract phase.
		if took < 38*time.Millisecond || took > 45*time.Millisecond {
			t.Errorf("16kB GET took %v, want ≈40ms", took)
		}
	})
	env.Run()
}

// TestProfileCostModel: ReadTime and WriteTime charge the per-op base
// once per op and the payload once at the path's bandwidth, and an
// empty payload or a profile without bandwidth costs no payload time.
func TestProfileCostModel(t *testing.T) {
	p := SwiftProfile()
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"three reads of 120 MB", p.ReadTime(3, 120e6), 3*p.ReadBase + time.Second},
		{"one write of 60 MB", p.WriteTime(1, 60e6), p.WriteBase + time.Second},
		{"empty write", p.WriteTime(2, 0), 2 * p.WriteBase},
		{"no bandwidth", Profile{ReadBase: time.Millisecond}.ReadTime(1, 1<<20), time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s: %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestShadowLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(1000), nil, false)
		start := env.Now()
		ver := s.PutShadow(0, "k", 2000)
		shadowTook := env.Now() - start
		if ver != 2 {
			t.Errorf("shadow ver=%d", ver)
		}
		// Paper §7.2.1: constant ≈11 ms regardless of payload size.
		if shadowTook < 10*time.Millisecond || shadowTook > 13*time.Millisecond {
			t.Errorf("shadow PUT took %v, want ≈11ms", shadowTook)
		}
		m, _ := s.MetaOf("k")
		if !m.IsShadow() {
			t.Error("no shadow gap after PutShadow")
		}
		if err := s.PersistPayload(0, "k", kvstore.Synthetic(2000), ver); err != nil {
			t.Fatal(err)
		}
		m, _ = s.MetaOf("k")
		if m.IsShadow() || m.PersistedVersion != 2 {
			t.Errorf("meta=%+v after persist", m)
		}
	})
	env.Run()
}

func TestPersistOrderEnforced(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(100), nil, false)
		v2 := s.PutShadow(0, "k", 100)
		v3 := s.PutShadow(0, "k", 100)
		if err := s.PersistPayload(0, "k", kvstore.Synthetic(100), v2); err != nil {
			t.Fatalf("persist v2: %v", err)
		}
		// Persisting v2 again (or anything below persisted) is stale.
		if err := s.PersistPayload(0, "k", kvstore.Synthetic(100), v2-1); !errors.Is(err, ErrStale) {
			t.Errorf("stale persist err=%v", err)
		}
		if err := s.PersistPayload(0, "k", kvstore.Synthetic(100), v3); err != nil {
			t.Fatalf("persist v3: %v", err)
		}
		// A version the store never issued is rejected.
		if err := s.PersistPayload(0, "k", kvstore.Synthetic(100), v3+5); !errors.Is(err, ErrStale) {
			t.Errorf("future persist err=%v", err)
		}
	})
	env.Run()
}

func TestReadWebhookRunsOnExternalGet(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	var hookKeys []string
	s.OnRead(func(key string, m Meta) { hookKeys = append(hookKeys, key) })
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(10), nil, false)
		s.Get(0, "k", false) // internal: no hook
		s.Get(0, "k", true)  // external: hook
	})
	env.Run()
	if len(hookKeys) != 1 || hookKeys[0] != "k" {
		t.Errorf("hooks=%v", hookKeys)
	}
}

func TestWriteWebhookRunsOnExternalPut(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	invalidated := 0
	s.OnWrite(func(key string) { invalidated++ })
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(10), nil, false)
		s.Put(0, "k", kvstore.Synthetic(10), nil, true)
	})
	env.Run()
	if invalidated != 1 {
		t.Errorf("write hooks=%d, want 1", invalidated)
	}
}

func TestReadWebhookBlocksUntilPersist(t *testing.T) {
	// Models §6.2: an external reader of a shadow object waits until
	// the persistor completes.
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	persisted := sim.NewFuture[struct{}](env)
	s.OnRead(func(key string, m Meta) {
		if m.IsShadow() {
			persisted.Wait()
		}
	})
	var readAt, persistAt time.Duration
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(100), nil, false)
		ver := s.PutShadow(0, "k", 100)
		env.Go(func() { // external client
			_, m, err := s.Get(0, "k", true)
			readAt = env.Now()
			if err != nil || m.LatestVersion != ver {
				t.Errorf("external get: %v %+v", err, m)
			}
		})
		env.Sleep(50 * time.Millisecond) // persistor is busy elsewhere
		s.PersistPayload(0, "k", kvstore.Synthetic(100), ver)
		persistAt = env.Now()
		persisted.Set(struct{}{})
	})
	env.Run()
	if readAt < persistAt {
		t.Errorf("external read returned at %v before persist at %v", readAt, persistAt)
	}
}

func TestHeadAndList(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "b/x", kvstore.Synthetic(5), nil, false)
		s.Put(0, "b/y", kvstore.Synthetic(6), nil, false)
		s.Put(0, "c/z", kvstore.Synthetic(7), nil, false)
		if m, ok := s.MetaOf("b/y"); !ok || m.Size != 6 {
			t.Errorf("head: %v %+v", ok, m)
		}
		if _, ok := s.MetaOf("nope"); ok {
			t.Error("head of a missing key found metadata")
		}
		keys := s.List("b/")
		if len(keys) != 2 || keys[0] != "b/x" || keys[1] != "b/y" {
			t.Errorf("list=%v", keys)
		}
	})
	env.Run()
}

func TestFeatureSidecar(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "img", kvstore.Synthetic(1<<20), nil, false)
		if err := s.SetFeatures("img", map[string]float64{"width": 1920, "height": 1080}); err != nil {
			t.Fatal(err)
		}
		if m, _ := s.MetaOf("img"); m.Features["width"] != 1920 {
			t.Errorf("features=%v", m.Features)
		}
		if err := s.SetFeatures("missing", map[string]float64{"width": 1}); !errors.Is(err, ErrNotFound) {
			t.Errorf("features set on a missing key: %v", err)
		}
	})
	env.Run()
}

func TestStats(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, S3Profile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(1000), nil, false)
		s.Get(0, "k", false)
		s.PutShadow(0, "k", 1000)
	})
	env.Run()
	gets, puts, shadows, br, bw := s.Stats()
	if gets != 1 || puts != 1 || shadows != 1 || br != 1000 || bw != 1000 {
		t.Errorf("stats=%d %d %d %d %d", gets, puts, shadows, br, bw)
	}
}

func TestStrongConsistencyNeverStale(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(100), nil, false)
		s.Put(0, "k", kvstore.Synthetic(200), nil, false)
		_, m, _ := s.Get(0, "k", false)
		if m.Size != 200 {
			t.Errorf("strong read got %d", m.Size)
		}
	})
	env.Run()
}

// TestCreatedHookFiresOnlyForExternalPut: the storage trigger sees a
// client's upload, with its size, and never a write the FaaS/cache
// layer makes itself.
func TestCreatedHookFiresOnlyForExternalPut(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	var fired []string
	s.OnCreated(func(key string, size int64) {
		fired = append(fired, key)
		if size != 300 {
			t.Errorf("created %s with size %d, want 300", key, size)
		}
	})
	env.Go(func() {
		s.Put(0, "internal", kvstore.Synthetic(300), nil, false)
		s.Put(0, "upload", kvstore.Synthetic(300), nil, true)
	})
	env.Run()
	if len(fired) != 1 || fired[0] != "upload" {
		t.Errorf("created hook fired for %v, want [upload]", fired)
	}
}
