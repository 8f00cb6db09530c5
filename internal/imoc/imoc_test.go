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
	net := simnet.New(env)
	net.AddNode("worker")
	net.AddNode("redis")
	return New(net, 1)
}

func TestSetGet(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	env.Go(func() {
		if _, err := c.Get(0, "k"); !errors.Is(err, ErrNotFound) {
			t.Errorf("get before set: %v", err)
		}
		c.Set(0, "k", kvstore.Synthetic(1))
		blob, err := c.Get(0, "k")
		if err != nil || blob.Size != 1 {
			t.Errorf("get: %v %+v", err, blob)
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

// An empty value costs the service's per-operation time and no
// payload time.
func TestEmptyValueCostsOneOp(t *testing.T) {
	env := sim.NewEnv(1)
	c := setup(env)
	env.Go(func() {
		c.Set(0, "empty", kvstore.Synthetic(0))
		start := env.Now()
		if _, err := c.Get(0, "empty"); err != nil {
			t.Fatal(err)
		}
		took := env.Now() - start
		if took < opBase || took > opBase+100*time.Microsecond {
			t.Errorf("empty GET took %v, want the %v operation plus two small messages", took, opBase)
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
// Set/Get stay correct, an overwrite replaces the object, and Len
// tracks the count exactly.
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
			c.Set(0, key(i), kvstore.Synthetic(1))
		}
		if c.Len() != n {
			t.Errorf("len=%d after overwriting half, want %d", c.Len(), n)
		}
		for i := 0; i < n; i++ {
			want := int64(i + 1)
			if i%2 == 0 {
				want = 1
			}
			if blob, err := c.Get(0, key(i)); err != nil || blob.Size != want {
				t.Fatalf("key %d after overwrites: %v size=%d, want %d", i, err, blob.Size, want)
			}
		}
	})
	env.Run()
}

func key(i int) string { return fmt.Sprintf("obj/%03d", i) }
