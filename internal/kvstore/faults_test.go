package kvstore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// TestCrashMasterMidPut crashes the master while a Put is in flight.
// The in-flight write may fail (it was never acknowledged), but every
// previously acknowledged version must survive recovery: the promoted
// backup serves the exact acked version with its tags.
func TestCrashMasterMidPut(t *testing.T) {
	env := sim.NewEnv(1)
	c, net := testCluster(env)
	var ackedVer uint64
	env.Go(func() {
		var err error
		ackedVer, err = c.Write(0, "k", Synthetic(1<<20), map[string]string{"dirty": "1"}, 1)
		if err != nil {
			t.Errorf("setup write: %v", err)
			return
		}
		// Launch a second Put and kill the master mid-transfer: the
		// payload ships over the fabric, so crashing shortly after
		// launch lands inside the Put.
		done := sim.NewFuture[error](env)
		env.Go(func() {
			_, werr := c.Write(0, "k", Synthetic(2<<20), nil, 1)
			done.Set(werr)
		})
		env.After(100*time.Microsecond, func() {
			net.SetNodeDown(1, true)
			c.Crash(1)
		})
		werr := done.Wait()
		// Whatever happened to the in-flight write, recovery must
		// restore the last acked state.
		n := c.RecoverNode(1)
		if n == 0 {
			t.Error("nothing recovered")
		}
		net.SetNodeDown(1, false)
		_, meta, rerr := c.Read(2, "k")
		if rerr != nil {
			t.Fatalf("read after recovery: %v", rerr)
		}
		if werr != nil {
			// Unacked write lost: the acked version must be served.
			if meta.Version != ackedVer {
				t.Errorf("version=%d, want acked %d (write err %v)", meta.Version, ackedVer, werr)
			}
			if meta.Tags["dirty"] != "1" {
				t.Errorf("acked tags lost: %v", meta.Tags)
			}
		} else if meta.Version <= ackedVer {
			t.Errorf("acked overwrite not recovered: version=%d", meta.Version)
		}
		if m, _ := c.MasterOf("k"); m == 1 {
			t.Error("key still mastered on crashed node")
		}
	})
	env.Run()
}

// TestRecoverChargesDetectionAndMeasuresReplay verifies the RAMCloud-
// style timed recovery: Recover charges the crash-detection timeout on
// the virtual clock, and the replay duration (detection excluded) is
// recorded in Stats.
func TestRecoverChargesDetectionAndMeasuresReplay(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.CrashDetectTimeout = 2 * time.Second
	c, _ := testClusterWith(env, cfg)
	env.Go(func() {
		for i := 0; i < 6; i++ {
			if _, err := c.Write(0, fmt.Sprintf("k%d", i), Synthetic(1<<20), nil, 1); err != nil {
				t.Fatal(err)
			}
		}
		c.Crash(1)
		start := env.Now()
		n, replay := c.Recover(1)
		total := time.Duration(env.Now() - start)
		if n != 6 {
			t.Errorf("recovered %d, want 6", n)
		}
		if total < 2*time.Second {
			t.Errorf("recover returned after %v, detection 2s not charged", total)
		}
		if replay <= 0 || replay >= time.Second {
			t.Errorf("replay duration %v, want small positive (detection excluded)", replay)
		}
		st := c.Stats()
		if st.Recoveries != 1 || st.Recovered != 6 {
			t.Errorf("stats=%+v", st)
		}
		if st.LastRecovery != replay || st.RecoveryTime != replay {
			t.Errorf("stats recovery times %v/%v, want %v", st.LastRecovery, st.RecoveryTime, replay)
		}
	})
	env.Run()
}

// TestRecoveryDeterministicOrder runs the same multi-object recovery
// twice; serial sorted-key replay must produce identical durations.
func TestRecoveryDeterministicOrder(t *testing.T) {
	runOnce := func() time.Duration {
		env := sim.NewEnv(3)
		c, _ := testCluster(env)
		var dur time.Duration
		env.Go(func() {
			for i := 0; i < 10; i++ {
				c.Write(0, fmt.Sprintf("obj/%02d", i), Synthetic(512<<10), nil, 1)
			}
			c.Crash(1)
			_, dur = c.Recover(1)
		})
		env.Run()
		return dur
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("recovery durations differ across identical runs: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("recovery duration %v, want > 0", a)
	}
}

// TestDirtyReplicaMetaSurvivesPromotion is the write-back safety net:
// a dirty (not yet persisted) object whose master dies must come back
// with its dirty tag and version intact, so the persistor can still
// push it to the RSDS.
func TestDirtyReplicaMetaSurvivesPromotion(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		tags := map[string]string{"dirty": "1", "version": "7", "kind": "output"}
		ver, err := c.Write(0, "wb", Synthetic(3<<20), tags, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Crash(1)
		if n := c.RecoverNode(1); n != 1 {
			t.Fatalf("recovered %d", n)
		}
		_, meta, err := c.Read(2, "wb")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != ver {
			t.Errorf("version=%d, want %d", meta.Version, ver)
		}
		for k, v := range tags {
			if meta.Tags[k] != v {
				t.Errorf("tag %q=%q, want %q", k, meta.Tags[k], v)
			}
		}
	})
}

// TestDemotedMasterCopySurvivesRestart: MigrateToBackup demotes the
// old master to a backup and pays a disk write for its copy. Once that
// write lands, the copy is on disk, so a reboot of the old master keeps
// it and recovery can promote it when every other copy is gone. The
// coordinator runs on a node without a server, as in NewSystem, so
// crashing every other copy's machine leaves it reachable.
func TestDemotedMasterCopySurvivesRestart(t *testing.T) {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	for i := 0; i < 5; i++ {
		net.AddNode("n")
	}
	c := New(net, 4, DefaultConfig())
	for i := 0; i < 4; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
	}
	env.Go(func() {
		ver, err := c.Write(1, "k", Synthetic(1<<20), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := c.places["k"]
		old := p.master
		if err := c.MigrateToBackup("k"); err != nil {
			t.Fatal(err)
		}
		env.Sleep(time.Second) // every disk flush has landed
		p = c.places["k"]
		if p.master == old || !slices.Contains(p.backups, old) {
			t.Fatalf("placement after migration: %+v, old master %d", p, old)
		}
		c.Restart(old)
		for _, b := range p.backups {
			if b != old {
				c.Crash(b)
			}
		}
		c.Crash(p.master)
		if n, _ := c.Recover(p.master); n != 1 {
			t.Fatalf("recovered %d objects, want 1", n)
		}
		_, meta, err := c.Read(old, "k")
		if err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
		if meta.Version != ver {
			t.Errorf("version=%d, want %d", meta.Version, ver)
		}
		if m, _ := c.MasterOf("k"); m != old {
			t.Errorf("master=%d, want the restarted node %d", m, old)
		}
	})
	env.Run()
}

// TestSetTagPropagatesToReplicas: a tag update on the master must reach
// same-version backup replicas, or a later promotion would resurrect a
// stale dirty flag.
func TestSetTagPropagatesToReplicas(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		if _, err := c.Write(0, "k", Synthetic(1<<20), map[string]string{"dirty": "1"}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.SetTag(0, "k", "dirty", "0"); err != nil {
			t.Fatal(err)
		}
		c.Crash(1)
		if n := c.RecoverNode(1); n != 1 {
			t.Fatalf("recovered %d", n)
		}
		_, m, err := c.Read(2, "k")
		if err != nil {
			t.Fatal(err)
		}
		if m.Tags["dirty"] != "0" {
			t.Errorf("promoted replica dirty=%q, want 0 (SetTag not propagated)", m.Tags["dirty"])
		}
	})
}

// TestRaceCrashRestartStress hammers the cluster with concurrent
// writers, readers and a crash/restart+recovery loop; run under
// -race it checks the locking discipline of the fault paths.
func TestRaceCrashRestartStress(t *testing.T) {
	env := sim.NewEnv(5)
	c, net := testCluster(env)
	wg := sim.NewWaitGroup(env)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			rng := env.NewRand()
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("s/%d/%d", w, i%5)
				node := simnet.NodeID(rng.Intn(4))
				if rng.Intn(2) == 0 {
					c.Write(node, key, Synthetic(int64(rng.Intn(1<<16)+1)), nil, node)
				} else {
					c.Read(node, key)
				}
				env.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
		})
	}
	wg.Add(1)
	env.Go(func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			victim := simnet.NodeID(round % 4)
			env.Sleep(2 * time.Millisecond)
			net.SetNodeDown(victim, true)
			c.Crash(victim)
			c.RecoverNode(victim)
			env.Sleep(time.Millisecond)
			net.SetNodeDown(victim, false)
			c.Restart(victim)
		}
	})
	env.Go(func() { wg.Wait() })
	env.Run()
}
