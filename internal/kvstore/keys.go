package kvstore

// Keys are interned at the coordinator. A key gets a dense id the first
// time the store handles it, and every table below the public API is a
// slice indexed by that id: the coordinator's placements, each master's
// log index and each backup's buffered and on-disk replicas. A string
// key is hashed once per operation, where it enters, instead of once
// per step.
//
// Ids are reference-counted. Every table entry holds a reference on its
// id, and so does every record that carries a key across a step, from
// the step that resolves it to the one that lets it go: an op or a
// batch from the coordinator's answer to its end (its replication
// round runs inside that span), a disk flush until it installs, and a
// promotion, a full migration or a recovery across its sleeps. The
// last reference released returns the id to a free list, and the next
// new key takes it, so the tables stay as large as the live key set,
// not the run. While anything holds an id the key keeps it: a key
// evicted and rewritten under a step in flight is the same id, and the
// step sees the key's new copy, as a lookup by string would, and
// refuses to act on it (ErrMoved: install's fence, group.log's check).

// objID is a key's id in its cluster's keyTable.
type objID int32

// noID marks a record slot that holds no id.
const noID objID = -1

// keyTable interns keys; ids is the package's one string-keyed map.
type keyTable struct {
	ids   map[string]objID
	names []string // each id's key; "" while the id is free
	refs  []int32  // references held on each id
	free  []objID  // released ids, reused last in, first out
}

// newKeyTable returns an empty key table.
func newKeyTable() *keyTable { return &keyTable{ids: make(map[string]objID)} }

// lookup returns key's id, when it has one.
func (t *keyTable) lookup(key string) (objID, bool) {
	id, ok := t.ids[key]
	return id, ok
}

// acquire returns key's id, interning the key when it has none, and
// holds a reference on it.
func (t *keyTable) acquire(key string) objID {
	id, ok := t.ids[key]
	if !ok {
		if n := len(t.free); n > 0 {
			id = t.free[n-1]
			t.free = t.free[:n-1]
			t.names[id] = key
		} else {
			id = objID(len(t.names))
			t.names = append(t.names, key)
			t.refs = append(t.refs, 0)
		}
		t.ids[key] = id
	}
	t.refs[id]++
	return id
}

// hold adds a reference on id.
func (t *keyTable) hold(id objID) { t.refs[id]++ }

// release drops a reference on id; the last one frees it.
func (t *keyTable) release(id objID) {
	if t.refs[id]--; t.refs[id] > 0 {
		return
	}
	delete(t.ids, t.names[id])
	t.names[id] = ""
	t.free = append(t.free, id)
}

// name returns id's key.
func (t *keyTable) name(id objID) string { return t.names[id] }

// table is a set of values indexed by the ids of keys; each entry holds
// a reference on its id.
type table[V any] struct {
	keys  *keyTable
	slots []slot[V]
	n     int // entries present
}

// slot is one id's entry and its presence mark.
type slot[V any] struct {
	v  V
	ok bool
}

// get returns id's entry, if present.
func (t *table[V]) get(id objID) (V, bool) {
	if int(id) < len(t.slots) {
		s := &t.slots[id]
		return s.v, s.ok
	}
	var zero V
	return zero, false
}

// at returns a pointer to id's entry, or nil when absent.
func (t *table[V]) at(id objID) *V {
	if int(id) < len(t.slots) && t.slots[id].ok {
		return &t.slots[id].v
	}
	return nil
}

// set stores v as id's entry, taking a reference on id when it had none.
func (t *table[V]) set(id objID, v V) {
	if n := int(id) + 1; n > cap(t.slots) {
		// Doubling: a table of replicas is large, and append's growth
		// for large slices would copy it several times as often.
		grown := make([]slot[V], n, max(n, 2*cap(t.slots)))
		copy(grown, t.slots)
		t.slots = grown
	} else if n > len(t.slots) {
		t.slots = t.slots[:n] // never written: len never shrinks
	}
	s := &t.slots[id]
	if !s.ok {
		s.ok = true
		t.n++
		t.keys.hold(id)
	}
	s.v = v
}

// del removes id's entry and its reference; it reports whether there
// was one.
func (t *table[V]) del(id objID) bool {
	if int(id) >= len(t.slots) || !t.slots[id].ok {
		return false
	}
	t.slots[id] = slot[V]{}
	t.n--
	t.keys.release(id)
	return true
}

// len returns the number of entries.
func (t *table[V]) len() int { return t.n }

// each visits every entry in id order.
func (t *table[V]) each(fn func(id objID, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.ok {
			fn(objID(i), &s.v)
		}
	}
}

// clear removes every entry.
func (t *table[V]) clear() {
	for i := range t.slots {
		if t.slots[i].ok {
			t.slots[i] = slot[V]{}
			t.keys.release(objID(i))
		}
	}
	t.n = 0
}
