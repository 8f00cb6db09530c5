package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ofc/internal/sim"
)

// promoRun is one promotion of a race: when it started and ended, and
// how.
type promoRun struct {
	start, end sim.Time
	err        error
}

// TestPromotionRacesRewrite promotes an 8 MB key while a 1 KB rewrite
// of it is in flight, the rewrite starting every 10 µs from 0 to
// 600 µs after the promotion, each run alone and with a second
// promotion of the key started 10 to 150 µs after the first (which
// sleeps about 120 µs). A write that lands on the old master after the
// move is refused there, and a move whose key was rewritten or moved
// during its sleep installs nothing, so after every run the key reads
// the newest acknowledged version and every master copy on a live
// server is its placement's; a promotion that fails reports ErrMoved,
// and one started during the sleep of another that succeeds fails.
func TestPromotionRacesRewrite(t *testing.T) {
	seconds := []time.Duration{-1, 10 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond, 110 * time.Microsecond, 150 * time.Microsecond}
	for _, second := range seconds {
		for at := time.Duration(0); at <= 600*time.Microsecond; at += 10 * time.Microsecond {
			name := fmt.Sprintf("rewrite at %v, second promotion at %v", at, second)
			env := sim.NewEnv(1)
			c, _ := testCluster(env)
			var promos []*promoRun
			promote := func(after time.Duration) {
				pr := &promoRun{}
				promos = append(promos, pr)
				env.After(after, func() {
					pr.start = env.Now()
					pr.err = c.MigrateToBackup("k", 0)
					pr.end = env.Now()
				})
			}
			env.Go(func() {
				newest, err := c.Write(1, "k", Synthetic(8<<20), nil, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				env.Sleep(time.Millisecond)
				promote(0)
				if second >= 0 {
					promote(second)
				}
				var rewrite uint64
				var rewriteErr error
				env.After(at, func() { rewrite, rewriteErr = c.Write(2, "k", Synthetic(1<<10), nil, 2) })
				env.Sleep(10 * time.Millisecond)
				if rewriteErr == nil {
					newest = rewrite
				} else if !errors.Is(rewriteErr, ErrMoved) {
					t.Fatalf("%s: rewrite: %v", name, rewriteErr)
				}
				if _, m, err := c.Read(3, "k"); err != nil || m.Version != newest {
					t.Fatalf("%s: read v%d %v, the newest acknowledged write is v%d", name, m.Version, err, newest)
				}
				for i, pr := range promos {
					if pr.err != nil && !errors.Is(pr.err, ErrMoved) {
						t.Fatalf("%s: promotion %d: %v", name, i, pr.err)
					}
				}
				if len(promos) == 2 && promos[0].err == nil && promos[1].start < promos[0].end && !errors.Is(promos[1].err, ErrMoved) {
					t.Fatalf("%s: a promotion started during another's sleep: %v, want ErrMoved", name, promos[1].err)
				}
				checkKeyTable(t, c, false)
			})
			env.Run()
			checkKeyTable(t, c, true)
		}
	}
}

// TestMigrateToBackupOfStaleVersion: a promotion naming a version the
// master no longer holds moves nothing, like an Evict of one.
func TestMigrateToBackupOfStaleVersion(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		v1, err := c.Write(1, "k", Synthetic(1<<20), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(1, "k", Synthetic(1<<20), nil, 1); err != nil {
			t.Fatal(err)
		}
		before := dumpStore(c)
		if err := c.MigrateToBackup("k", v1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("MigrateToBackup of v%d: %v, want ErrNotFound", v1, err)
		}
		if after := dumpStore(c); after != before {
			t.Fatalf("a refused promotion changed the store:\n%s\nwas\n%s", after, before)
		}
		if err := c.MigrateToBackup("absent", 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("MigrateToBackup of an absent key: %v", err)
		}
	})
}

// TestMoveOntoItsMaster: a full move to the key's own master keeps
// the copy and the placement.
func TestMoveOntoItsMaster(t *testing.T) {
	run(t, func(env *sim.Env, c *Cluster) {
		v, err := c.Write(1, "k", Synthetic(1<<20), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MigrateFull("k", 1); err != nil {
			t.Fatal(err)
		}
		if m, _ := c.MasterOf("k"); m != 1 {
			t.Fatalf("master %d, want 1", m)
		}
		if _, m, err := c.Read(2, "k"); err != nil || m.Version != v {
			t.Fatalf("read v%d %v, want v%d", m.Version, err, v)
		}
		checkKeyTable(t, c, false)
	})
}
