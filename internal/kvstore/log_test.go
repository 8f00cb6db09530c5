package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ofc/internal/sim"
)

func mkObj(size int64) *object {
	return &object{blob: Synthetic(size), meta: Meta{Size: size}}
}

func TestLogPutGetDelete(t *testing.T) {
	l := newObjLog(16<<20, newKeyTable())
	if delta := l.putKey("a", mkObj(1000)); delta != 1000 {
		t.Errorf("delta=%d", delta)
	}
	o, ok := l.getKey("a")
	if !ok || o.meta.Size != 1000 {
		t.Fatalf("get: %v %v", o, ok)
	}
	if l.live != 1000 {
		t.Errorf("live=%d", l.live)
	}
	freed, ok := l.deleteKey("a")
	if !ok || freed != 1000 {
		t.Errorf("delete: %d %v", freed, ok)
	}
	if _, ok := l.getKey("a"); ok {
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
	l := newObjLog(16<<20, newKeyTable())
	l.putKey("k", mkObj(5000))
	if delta := l.putKey("k", mkObj(3000)); delta != -2000 {
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
	l := newObjLog(10_000, newKeyTable())
	for i := 0; i < 5; i++ {
		l.putKey(fmt.Sprintf("k%d", i), mkObj(4000))
	}
	if len(l.segs) < 2 {
		t.Errorf("segments=%d, expected rolling", len(l.segs))
	}
}

func TestLogCleanCompacts(t *testing.T) {
	l := newObjLog(10_000, newKeyTable())
	// Write 10 objects, overwrite them all: ~half the log is dead.
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			l.putKey(fmt.Sprintf("k%d", i), mkObj(4000))
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
		o, ok := l.getKey(fmt.Sprintf("k%d", i))
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
		l := newObjLog(8<<10, newKeyTable())
		model := map[string]int64{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%7)
			switch op % 3 {
			case 0, 1:
				size := int64(rng.Intn(4000) + 1)
				l.putKey(key, mkObj(size))
				model[key] = size
			case 2:
				l.deleteKey(key)
				delete(model, key)
			}
			if rng.Intn(8) == 0 {
				l.clean(l.live)
			}
		}
		var total int64
		for k, size := range model {
			o, ok := l.getKey(k)
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
		l.each(func(objID, *object) { count++ })
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
// master sleeps for. The tie goes to the oldest segment every time.
func TestLogCleanTieGoesToOldestSegment(t *testing.T) {
	for run := 0; run < 100; run++ {
		l := newObjLog(100, newKeyTable())
		// Three closed segments at utilization 1/2: 50 live of 100, 30 of
		// 60 (the next object did not fit), 50 of 100. Deletes append
		// zero-size tombstones, so they move no segment boundary.
		for i, size := range []int64{50, 50, 30, 30, 50, 50, 10} {
			l.putKey(fmt.Sprintf("k%d", i), mkObj(size))
		}
		for _, k := range []string{"k0", "k2", "k4"} {
			l.deleteKey(k)
		}
		if len(l.segs) != 4 || l.head != l.segs[3] {
			t.Fatalf("layout: %d segments, want 4 with the head last", len(l.segs))
		}
		for id := 0; id < 3; id++ {
			if u := segUtil(l.segs[id]); u != 0.5 {
				t.Fatalf("segment %d utilization %v, want 0.5", id, u)
			}
		}
		oldest := l.segs[0]
		moved := l.clean(l.alloc - 1) // one victim is enough
		if left := l.segs[0] == oldest; left || moved != 50 {
			t.Fatalf("run %d: moved %d bytes, segment 0 cleaned=%v; want the oldest segment's 50 bytes", run, moved, !left)
		}
	}
}

// FuzzObjLog drives the log with puts, overwrites, deletes and cleans at
// random targets, three bytes an op, against a model: each id's current
// object, the live bytes, and the allocated bytes, which grow by what a
// put appends and stay put for a delete, whose tombstone is empty; a
// clean leaves the live bytes and frees what it does not relocate.
// After every op checkObjLog holds: above all, no index entry names a
// spare segment or an entry in a free block, and no dead entry holds an
// object.
func FuzzObjLog(f *testing.F) {
	f.Add([]byte{0, 1, 40, 0, 2, 40, 0, 1, 10, 3, 0, 0})
	f.Add([]byte{0, 0, 255, 0, 1, 255, 0, 2, 255, 2, 0, 0, 3, 0, 0, 0, 3, 255, 3, 0, 0, 0, 4, 9})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 96)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ids = 8
		l := newObjLog(8<<10, newKeyTable())
		model := make(map[string]*object)
		var live, alloc int64
		for i := 0; i+2 < len(ops); i += 3 {
			op, key, arg := ops[i]%4, fmt.Sprintf("k%d", ops[i+1]%ids), int64(ops[i+2])
			switch op {
			case 0, 1: // put, or overwrite when key is present
				obj := mkObj(arg * 32)
				want := obj.meta.Size
				if old, ok := model[key]; ok {
					want -= old.meta.Size
				}
				if delta := l.putKey(key, obj); delta != want {
					t.Fatalf("op %d: put %s: delta %d, want %d", i/3, key, delta, want)
				}
				live += want
				alloc += obj.meta.Size
				model[key] = obj
			case 2:
				old, present := model[key]
				freed, ok := l.deleteKey(key)
				if ok != present || present && freed != old.meta.Size {
					t.Fatalf("op %d: delete %s: %d %v, want %v", i/3, key, freed, ok, present)
				}
				if present {
					live -= old.meta.Size
					delete(model, key)
				}
			case 3:
				// A clean relocates live entries, which appends them
				// again, and frees whole segments: what it freed is
				// the rest of the change, and it has to be some.
				before := alloc
				moved := l.clean(l.live + arg*64)
				if freed := before + moved - l.alloc; moved < 0 || freed < 0 || moved > 0 && freed == 0 {
					t.Fatalf("op %d: clean moved %d and freed %d bytes", i/3, moved, freed)
				}
				alloc = l.alloc // the segments' books are checked below
			}
			if l.live != live || l.alloc != alloc {
				t.Fatalf("op %d: live %d alloc %d, model %d and %d", i/3, l.live, l.alloc, live, alloc)
			}
			checkObjLog(t, l, model)
		}
	})
}

// checkObjLog fails t unless l's index, segments, spares and free
// blocks agree with each other and with model, each key's current
// object. A cleaned segment is on the spare list or reopened as a later
// head, so a spare is checked to be empty and outside the log, and a
// free block to be zeroed and held by no segment.
func checkObjLog(t *testing.T, l *objLog, model map[string]*object) {
	t.Helper()
	inLog := make(map[*segment]bool, len(l.segs))
	held := make(map[*entryBlock]bool)
	var alloc int64
	for si, s := range l.segs {
		inLog[s] = true
		if len(s.blocks) != (s.n+blockLen-1)/blockLen {
			t.Fatalf("segment %d: %d entries in %d blocks", si, s.n, len(s.blocks))
		}
		for _, b := range s.blocks {
			held[b] = true
		}
		var appended, live int64
		for i := range s.n {
			e := s.entry(i)
			appended += e.size
			if !e.dead {
				live += e.size
			} else if e.obj != nil {
				t.Fatalf("segment %d: dead entry %d holds an object", si, i)
			}
		}
		if s.appended != appended || s.live != live {
			t.Fatalf("segment %d: books %d/%d, entries %d/%d", si, s.live, s.appended, live, appended)
		}
		alloc += appended
	}
	if alloc != l.alloc || l.segs[len(l.segs)-1] != l.head {
		t.Fatalf("log: alloc %d, segments hold %d; head last %v", l.alloc, alloc, l.segs[len(l.segs)-1] == l.head)
	}
	for _, s := range l.spare {
		if inLog[s] || s.n != 0 || len(s.blocks) != 0 || s.appended != 0 || s.live != 0 {
			t.Fatalf("spare segment in the log (%v) or not empty (%d entries)", inLog[s], s.n)
		}
	}
	for _, b := range l.free {
		if held[b] || *b != (entryBlock{}) {
			t.Fatalf("free block held by a segment (%v) or not zeroed", held[b])
		}
	}
	n := 0
	l.index.each(func(id objID, ref *entryRef) {
		n++
		key := l.index.keys.name(id)
		if !inLog[ref.seg] || ref.idx >= ref.seg.n {
			t.Fatalf("%s: index names entry %d of a segment outside the log (spare %v) or past its end", key, ref.idx, slices.Contains(l.spare, ref.seg))
		}
		if e := ref.seg.entry(ref.idx); e.dead || e.id != id || e.obj != model[key] {
			t.Fatalf("%s: index names entry %+v, want the live %p", key, *e, model[key])
		}
	})
	if n != len(model) {
		t.Fatalf("index holds %d keys, model %d", n, len(model))
	}
}
