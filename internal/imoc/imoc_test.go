package imoc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

func setup(env *sim.Env) *Cache {
	net := simnet.New(env, simnet.DefaultConfig())
	net.AddNode("worker")
	net.AddNode("redis")
	return New(net, 1, RedisProfile())
}

func TestSetGetDel(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	env.Go(func() {
		c.Set(0, "k", kvstore.Bytes([]byte("v")))
		blob, err := c.Get(0, "k")
		if err != nil || string(blob.Data) != "v" {
			t.Errorf("get: %v %q", err, blob.Data)
		}
		c.Del(0, "k")
		if _, err := c.Get(0, "k"); !errors.Is(err, ErrNotFound) {
			t.Errorf("get after del: %v", err)
		}
	})
	env.Run()
	gets, sets := c.Stats()
	if gets != 1 || sets != 1 {
		t.Errorf("stats=%d %d", gets, sets)
	}
}

func TestRedisIsFastComparedToRSDS(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	env.Go(func() {
		c.Set(0, "k", kvstore.Synthetic(128<<10))
		start := env.Now()
		if _, err := c.Get(0, "k"); err != nil {
			t.Fatal(err)
		}
		took := env.Now() - start
		// 128 kB from in-region Redis: well under a millisecond —
		// that's what makes E&L "negligible" in Figure 3's second
		// bar series.
		if took > time.Millisecond {
			t.Errorf("128kB Redis GET took %v", took)
		}
	})
	env.Run()
}

func TestLen(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	env.Go(func() {
		c.Set(0, "a", kvstore.Synthetic(1))
		c.Set(0, "b", kvstore.Synthetic(1))
		c.Set(0, "a", kvstore.Synthetic(2))
	})
	env.Run()
	if c.Len() != 2 {
		t.Errorf("len=%d", c.Len())
	}
}

// TestManyKeys exercises the object map across a few hundred keys:
// Set/Get/Del stay correct and Len tracks the count exactly.
func TestManyKeys(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	const n = 256
	env.Go(func() {
		for i := 0; i < n; i++ {
			c.Set(0, key(i), kvstore.Synthetic(int64(i+1)))
		}
		if c.Len() != n {
			t.Errorf("len=%d after %d sets", c.Len(), n)
		}
		for i := 0; i < n; i++ {
			blob, err := c.Get(0, key(i))
			if err != nil || blob.Size != int64(i+1) {
				t.Fatalf("get %d: %v size=%d", i, err, blob.Size)
			}
		}
		for i := 0; i < n; i += 2 {
			c.Del(0, key(i))
		}
		if c.Len() != n/2 {
			t.Errorf("len=%d after deleting half, want %d", c.Len(), n/2)
		}
		for i := 1; i < n; i += 2 {
			if _, err := c.Get(0, key(i)); err != nil {
				t.Fatalf("surviving key %d: %v", i, err)
			}
		}
	})
	env.Run()
}

func key(i int) string { return fmt.Sprintf("obj/%03d", i) }
