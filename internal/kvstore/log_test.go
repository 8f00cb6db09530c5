package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ofc/internal/sim"
)

func mkObj(size int64) *object {
	return &object{blob: Synthetic(size), meta: Meta{Size: size}}
}

func TestLogPutGetDelete(t *testing.T) {
	l := newObjLog(16 << 20)
	if delta := l.put("a", mkObj(1000)); delta != 1000 {
		t.Errorf("delta=%d", delta)
	}
	o, ok := l.get("a")
	if !ok || o.meta.Size != 1000 {
		t.Fatalf("get: %v %v", o, ok)
	}
	if l.live != 1000 {
		t.Errorf("live=%d", l.live)
	}
	freed, ok := l.delete("a")
	if !ok || freed != 1000 {
		t.Errorf("delete: %d %v", freed, ok)
	}
	if _, ok := l.get("a"); ok {
		t.Error("get after delete")
	}
	if l.live != 0 {
		t.Errorf("live=%d after delete", l.live)
	}
	// Dead bytes remain allocated until cleaning.
	if l.alloc != 1000 {
		t.Errorf("alloc=%d, want 1000 (tombstoned, not reclaimed)", l.alloc)
	}
}

func TestLogOverwriteLeavesDeadBytes(t *testing.T) {
	l := newObjLog(16 << 20)
	l.put("k", mkObj(5000))
	if delta := l.put("k", mkObj(3000)); delta != -2000 {
		t.Errorf("overwrite delta=%d, want -2000", delta)
	}
	if l.live != 3000 {
		t.Errorf("live=%d", l.live)
	}
	if l.alloc != 8000 {
		t.Errorf("alloc=%d, want 8000 (old version still allocated)", l.alloc)
	}
	if u := l.utilization(); u < 0.37 || u > 0.38 {
		t.Errorf("utilization=%v, want 3/8", u)
	}
}

func TestLogRollsSegments(t *testing.T) {
	l := newObjLog(10_000)
	for i := 0; i < 5; i++ {
		l.put(fmt.Sprintf("k%d", i), mkObj(4000))
	}
	if len(l.segs) < 2 {
		t.Errorf("segments=%d, expected rolling", len(l.segs))
	}
}

func TestLogCleanCompacts(t *testing.T) {
	l := newObjLog(10_000)
	// Write 10 objects, overwrite them all: ~half the log is dead.
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			l.put(fmt.Sprintf("k%d", i), mkObj(4000))
		}
	}
	if l.alloc <= l.live {
		t.Fatalf("alloc=%d live=%d: no dead bytes?", l.alloc, l.live)
	}
	moved := l.clean(l.live + 10_000)
	if moved < 0 {
		t.Fatal("negative moved")
	}
	if l.alloc > l.live+2*10_000 {
		t.Errorf("alloc=%d live=%d after clean", l.alloc, l.live)
	}
	// Every object survives with its latest version.
	for i := 0; i < 10; i++ {
		o, ok := l.get(fmt.Sprintf("k%d", i))
		if !ok || o.meta.Size != 4000 {
			t.Fatalf("k%d lost after clean", i)
		}
	}
	if l.cleaned == 0 {
		t.Error("no cleanings recorded")
	}
}

// Property: after an arbitrary sequence of puts/deletes (and periodic
// cleans), the log's contents match a model map, live bytes equal the
// model's total, and alloc ≥ live.
func TestPropertyLogMatchesModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newObjLog(8 << 10)
		model := map[string]int64{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%7)
			switch op % 3 {
			case 0, 1:
				size := int64(rng.Intn(4000) + 1)
				l.put(key, mkObj(size))
				model[key] = size
			case 2:
				l.delete(key)
				delete(model, key)
			}
			if rng.Intn(8) == 0 {
				l.clean(l.live)
			}
		}
		var total int64
		for k, size := range model {
			o, ok := l.get(k)
			if !ok || o.meta.Size != size {
				return false
			}
			total += size
		}
		if l.live != total {
			return false
		}
		if l.alloc < l.live {
			return false
		}
		// No extra keys.
		count := 0
		l.each(func(string, *object) { count++ })
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWritePathCleansUnderPressure(t *testing.T) {
	// A server near its limit with many dead bytes compacts on write
	// instead of rejecting.
	run(t, func(env *sim.Env, c *Cluster) {
		c.SetMemoryLimit(1, 8<<20)
		// Overwrite the same key repeatedly: live stays 1 MB while the
		// log accumulates dead versions well past the 8 MB limit.
		for i := 0; i < 20; i++ {
			if _, err := c.Write(1, "hot", Synthetic(1<<20), nil, 1); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		s := c.Server(1)
		alloc, live, cleanings, _ := s.LogStats()
		if live != 1<<20 {
			t.Errorf("live=%d", live)
		}
		if alloc > 8<<20 {
			t.Errorf("alloc=%d exceeds the limit; cleaner idle", alloc)
		}
		if cleanings == 0 {
			t.Error("cleaner never ran")
		}
	})
}

// TestLogCleanTieGoesToOldestSegment: closed segments of equal
// utilization hold different amounts of live data, so which one the
// cleaner takes decides the bytes it relocates — and the copy time the
// master sleeps for. The tie goes to the lowest segment id every time,
// not to wherever the range over the segment map happens to start.
func TestLogCleanTieGoesToOldestSegment(t *testing.T) {
	for run := 0; run < 100; run++ {
		l := newObjLog(100)
		// Three closed segments at utilization 1/2: 50 live of 100, 30 of
		// 60 (the next object did not fit), 50 of 100. Deletes append
		// zero-size tombstones, so they move no segment boundary.
		for i, size := range []int64{50, 50, 30, 30, 50, 50, 10} {
			l.put(fmt.Sprintf("k%d", i), mkObj(size))
		}
		for _, k := range []string{"k0", "k2", "k4"} {
			l.delete(k)
		}
		if len(l.segs) != 4 || l.head.id != 3 {
			t.Fatalf("layout: %d segments, head %d; want 4 and 3", len(l.segs), l.head.id)
		}
		for id := 0; id < 3; id++ {
			if u := segUtil(l.segs[id]); u != 0.5 {
				t.Fatalf("segment %d utilization %v, want 0.5", id, u)
			}
		}
		moved := l.clean(l.alloc - 1) // one victim is enough
		if _, left := l.segs[0]; left || moved != 50 {
			t.Fatalf("run %d: moved %d bytes, segment 0 cleaned=%v; want the oldest segment's 50 bytes", run, moved, !left)
		}
	}
}
