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
		s.Delete(0, "k", true)
	})
	env.Run()
	if invalidated != 2 {
		t.Errorf("write hooks=%d, want 2", invalidated)
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
		m, err := s.Head(0, "b/y")
		if err != nil || m.Size != 6 {
			t.Errorf("head: %v %+v", err, m)
		}
		if _, err := s.Head(0, "nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("head missing: %v", err)
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
		f := s.Features("img")
		if f["width"] != 1920 {
			t.Errorf("features=%v", f)
		}
		if s.Features("missing") != nil {
			t.Error("features of missing key")
		}
	})
	env.Run()
}

func TestDelete(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(10), nil, false)
		if err := s.Delete(0, "k", false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(0, "k", false); !errors.Is(err, ErrNotFound) {
			t.Errorf("get after delete: %v", err)
		}
		if err := s.Delete(0, "k", false); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete: %v", err)
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

// TestSetUserMetaIsMetadataOnly: SetUserMeta, the cache-off backend's
// SetTag, rewrites one entry without a new version, leaves the map Put
// was given and an earlier Meta untouched, and fails on a missing key.
func TestSetUserMetaIsMetadataOnly(t *testing.T) {
	env := sim.NewEnv(1)
	s, _ := setup(env, SwiftProfile())
	given := map[string]string{"dirty": "1"}
	env.Go(func() {
		s.Put(0, "k", kvstore.Synthetic(10), given, false)
		s.Put(0, "bare", kvstore.Synthetic(10), nil, false)
	})
	env.Run()
	before, _ := s.MetaOf("k")
	if err := s.SetUserMeta("k", "dirty", "0"); err != nil {
		t.Fatal(err)
	}
	after, _ := s.MetaOf("k")
	if after.UserMeta["dirty"] != "0" || after.LatestVersion != before.LatestVersion || after.PersistedVersion != before.PersistedVersion {
		t.Errorf("after SetUserMeta: %+v, was %+v", after, before)
	}
	if given["dirty"] != "1" || before.UserMeta["dirty"] != "1" {
		t.Errorf("SetUserMeta wrote through: given=%v earlier meta=%v", given, before.UserMeta)
	}
	if err := s.SetUserMeta("bare", "kind", "input"); err != nil {
		t.Fatal(err)
	}
	if m, _ := s.MetaOf("bare"); m.UserMeta["kind"] != "input" {
		t.Errorf("bare object's user meta %v", m.UserMeta)
	}
	if err := s.SetUserMeta("missing", "dirty", "0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: err=%v, want ErrNotFound", err)
	}
}
