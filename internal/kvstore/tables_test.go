package kvstore

import (
	"math/rand"
	"slices"
	"testing"

	"ofc/internal/simnet"
)

// The tests and the process models read and write the id-indexed tables
// by key, resolving the key at each use, as a map keyed by the string
// would: the helpers below are that string view.

// lookupKey returns key's entry, if present.
func (t *table[V]) lookupKey(key string) (V, bool) {
	if id, ok := t.keys.lookup(key); ok {
		return t.get(id)
	}
	var zero V
	return zero, false
}

// setKey stores v as key's entry, interning key for the call.
func (t *table[V]) setKey(key string, v V) {
	id := t.keys.acquire(key)
	t.set(id, v)
	t.keys.release(id)
}

// delKey removes key's entry.
func (t *table[V]) delKey(key string) {
	if id, ok := t.keys.lookup(key); ok {
		t.del(id)
	}
}

// byKey returns the entries keyed by their keys.
func (t *table[V]) byKey() map[string]V {
	out := make(map[string]V, t.len())
	t.each(func(id objID, v *V) { out[t.keys.name(id)] = *v })
	return out
}

// getKey returns key's master copy.
func (l *objLog) getKey(key string) (*object, bool) {
	if id, ok := l.index.keys.lookup(key); ok {
		return l.get(id)
	}
	return nil, false
}

// putKey stores key's master copy, interning key for the call.
func (l *objLog) putKey(key string, obj *object) int64 {
	id := l.index.keys.acquire(key)
	defer l.index.keys.release(id)
	return l.put(id, obj)
}

// deleteKey removes key's master copy.
func (l *objLog) deleteKey(key string) (int64, bool) {
	if id, ok := l.index.keys.lookup(key); ok {
		return l.delete(id)
	}
	return 0, false
}

// byKey returns the master copies keyed by their keys.
func (l *objLog) byKey() map[string]*object {
	out := make(map[string]*object, l.index.len())
	l.each(func(id objID, o *object) { out[l.index.keys.name(id)] = o })
	return out
}

// placeKey assigns key a placement as place does, interning key for the
// call.
func (c *Cluster) placeKey(key string, size int64, preferred simnet.NodeID) (placement, error) {
	id := c.keys.acquire(key)
	defer c.keys.release(id)
	return c.place(id, size, preferred)
}

// checkKeyTable fails t unless every id c has interned names its key
// and is held by at least the table entries that carry it, exactly
// those when exact (nothing is in flight), and every free id is
// unnamed and unheld; and unless the placements agree with the copies:
// every master copy on a live server is its key's placed master, and
// no placement lists its master among its backups.
func checkKeyTable(t *testing.T, c *Cluster, exact bool) {
	t.Helper()
	for node, s := range c.servers {
		if s == nil || s.node.Down() {
			continue
		}
		s.log.each(func(id objID, o *object) {
			if p := c.places.at(id); p == nil || p.master != simnet.NodeID(node) {
				t.Fatalf("%q: master copy v%d on s%d, placement %+v", c.keys.name(id), o.meta.Version, node, p)
			}
		})
	}
	c.places.each(func(id objID, p *placement) {
		if slices.Contains(p.backups.list(), p.master) {
			t.Fatalf("%q: master %d among its backups %v", c.keys.name(id), p.master, p.backups.list())
		}
	})
	refs := make([]int32, len(c.keys.names))
	c.places.each(func(id objID, _ *placement) { refs[id]++ })
	for _, s := range c.servers {
		if s == nil {
			continue
		}
		s.log.index.each(func(id objID, _ *entryRef) { refs[id]++ })
		s.backups.each(func(id objID, _ *object) { refs[id]++ })
		s.disk.each(func(id objID, _ *object) { refs[id]++ })
	}
	for id, n := range refs {
		name, held := c.keys.names[id], c.keys.refs[id]
		if held < n || exact && held != n {
			t.Fatalf("id %d (%q): %d references, the tables hold %d", id, name, held, n)
		}
		if free := slices.Contains(c.keys.free, objID(id)); free != (held == 0) || free != (name == "") {
			t.Fatalf("id %d (%q): %d references, free %v", id, name, held, free)
		}
		if held > 0 && c.keys.ids[name] != objID(id) {
			t.Fatalf("id %d: %q interned as %d", id, name, c.keys.ids[name])
		}
	}
	if len(c.keys.ids)+len(c.keys.free) != len(c.keys.names) {
		t.Fatalf("%d keys interned and %d ids free, of %d", len(c.keys.ids), len(c.keys.free), len(c.keys.names))
	}
}

// keyTableModel is the key table as a test-local map from key to its
// reference count: an id's identity is the key it was interned for.
type keyTableModel map[string]int

// driveKeyTable applies the operations coded in data to a key table and
// to the model, over eight keys: intern and reference, reference an
// interned key again, release a reference. It checks after each one
// that every interned key's id names it, that references agree with
// the model, that a released id is reused, last freed first, by the
// next new key, and that ids stay below the peak of keys interned at
// once.
func driveKeyTable(t *testing.T, data []byte) {
	kt := newKeyTable()
	model := keyTableModel{}
	var freed []objID // the model's free list
	peak := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, key := data[i]%3, string(rune('a'+data[i+1]%8))
		switch op {
		case 0: // acquire
			want := objID(-1)
			if _, ok := model[key]; !ok && len(freed) > 0 {
				want = freed[len(freed)-1]
				freed = freed[:len(freed)-1]
			}
			id := kt.acquire(key)
			if want >= 0 && id != want {
				t.Fatalf("step %d: %q interned as %d, want the last freed id %d", i/2, key, id, want)
			}
			model[key]++
		case 1: // hold
			id, ok := kt.lookup(key)
			if _, in := model[key]; in != ok {
				t.Fatalf("step %d: lookup(%q) = %v, the model %v", i/2, key, ok, in)
			}
			if ok {
				kt.hold(id)
				model[key]++
			}
		case 2: // release
			id, ok := kt.lookup(key)
			if !ok {
				continue
			}
			kt.release(id)
			if model[key]--; model[key] == 0 {
				delete(model, key)
				freed = append(freed, id)
			}
		}
		peak = max(peak, len(model))
		if len(kt.ids) != len(model) {
			t.Fatalf("step %d: %d keys interned, the model %d", i/2, len(kt.ids), len(model))
		}
		for k, n := range model {
			id := kt.ids[k]
			if kt.name(id) != k || int(kt.refs[id]) != n {
				t.Fatalf("step %d: %q is id %d named %q with %d references, the model %d", i/2, k, id, kt.name(id), kt.refs[id], n)
			}
		}
		if len(kt.names) > peak {
			t.Fatalf("step %d: %d ids for a peak of %d keys", i/2, len(kt.names), peak)
		}
		if !slices.Equal(kt.free, freed) {
			t.Fatalf("step %d: free list %v, the model %v", i/2, kt.free, freed)
		}
	}
}

// FuzzKeyTable drives the key table against its model (driveKeyTable).
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 2, 0, 0, 3, 0, 4, 1, 2, 2, 2, 2, 2})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 64)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(driveKeyTable)
}
