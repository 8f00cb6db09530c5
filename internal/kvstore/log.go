package kvstore

// Log-structured memory, the storage engine RAMCloud builds masters on:
// objects are only ever appended to the head segment; overwrites and
// deletes leave dead entries behind; a cleaner compacts low-utilization
// segments by relocating their live entries to the head and freeing
// the segment. Memory is accounted two ways: live bytes (the sum of
// current object sizes, what eviction policies reason about) and
// allocated bytes (segment memory actually held, what the cleaner
// bounds).

// segment is one append-only arena.
type segment struct {
	id      int
	entries []logEntry
	// appended is the byte volume ever written into the segment;
	// live is the portion still current.
	appended int64
	live     int64
}

// logEntry is one record: an object version or a tombstone.
type logEntry struct {
	key  string
	obj  *object // nil for tombstones
	size int64
	dead bool
}

// entryRef locates an object's current entry.
type entryRef struct {
	seg *segment
	idx int
}

// objLog is the per-master log-structured store.
type objLog struct {
	segCap  int64
	nextID  int
	head    *segment
	segs    map[int]*segment
	index   map[string]entryRef
	live    int64
	alloc   int64
	cleaned int64 // cleanings performed
	moved   int64 // bytes relocated by the cleaner
}

// newObjLog returns an empty log with the given segment capacity.
func newObjLog(segCap int64) *objLog {
	l := &objLog{segCap: segCap, segs: make(map[int]*segment), index: make(map[string]entryRef)}
	l.roll()
	return l
}

// roll opens a fresh head segment.
func (l *objLog) roll() {
	s := &segment{id: l.nextID}
	l.nextID++
	l.segs[s.id] = s
	l.head = s
}

// appendEntry adds a record to the head, rolling when full.
func (l *objLog) appendEntry(e logEntry) entryRef {
	if l.head.appended+e.size > l.segCap && l.head.appended > 0 {
		l.roll()
	}
	l.head.entries = append(l.head.entries, e)
	l.head.appended += e.size
	l.alloc += e.size
	if !e.dead {
		l.head.live += e.size
	}
	return entryRef{seg: l.head, idx: len(l.head.entries) - 1}
}

// killEntry marks a located entry dead and adjusts accounting.
func (l *objLog) killEntry(ref entryRef) {
	e := &ref.seg.entries[ref.idx]
	if e.dead {
		return
	}
	e.dead = true
	ref.seg.live -= e.size
}

// put stores (or overwrites) an object; returns the live-byte delta.
func (l *objLog) put(key string, obj *object) int64 {
	var delta int64 = obj.meta.Size
	if old, ok := l.index[key]; ok {
		delta -= old.seg.entries[old.idx].size
		l.killEntry(old)
		l.live -= old.seg.entries[old.idx].size
	}
	ref := l.appendEntry(logEntry{key: key, obj: obj, size: obj.meta.Size})
	l.index[key] = ref
	l.live += obj.meta.Size
	return delta
}

// get returns the current object for key.
func (l *objLog) get(key string) (*object, bool) {
	ref, ok := l.index[key]
	if !ok {
		return nil, false
	}
	return ref.seg.entries[ref.idx].obj, true
}

// delete removes key (appending a zero-size tombstone, as RAMCloud
// does so deletes survive crashes); returns the freed live bytes.
func (l *objLog) delete(key string) (int64, bool) {
	ref, ok := l.index[key]
	if !ok {
		return 0, false
	}
	size := ref.seg.entries[ref.idx].size
	l.killEntry(ref)
	l.live -= size
	delete(l.index, key)
	l.appendEntry(logEntry{key: key, size: 0, dead: true})
	return size, true
}

// each visits every live object, in no particular order.
func (l *objLog) each(fn func(key string, obj *object)) {
	for key, ref := range l.index {
		fn(key, ref.seg.entries[ref.idx].obj) //lint:allow mapiter the one caller, Cluster.Objects, promises no order; memctl's policies impose their own and its conformance suite shuffles the census
	}
}

// utilization is live/allocated (1 when empty).
func (l *objLog) utilization() float64 {
	if l.alloc == 0 {
		return 1
	}
	return float64(l.live) / float64(l.alloc)
}

// clean compacts segments until allocated ≤ target (or no progress is
// possible): lowest-utilization closed segments first, live entries
// relocated to the head. Returns the bytes relocated, which the caller
// charges as memory-copy time.
func (l *objLog) clean(target int64) int64 {
	var movedTotal int64
	for l.alloc > target {
		// Pick the closed segment with the lowest utilization, the
		// oldest on a tie: the victim decides how many bytes move, and
		// the caller sleeps for them, so it may not be left to the
		// order a map range happens to take.
		var victim *segment
		var victimUtil float64
		for _, s := range l.segs {
			if s == l.head {
				continue
			}
			if u := segUtil(s); victim == nil || u < victimUtil || (u == victimUtil && s.id < victim.id) {
				victim, victimUtil = s, u
			}
		}
		if victim == nil {
			break
		}
		if victimUtil >= 0.98 && l.alloc-victim.appended < target {
			// Only nearly-full-live segments remain: compaction cannot
			// reclaim meaningfully.
			break
		}
		// Relocate live entries to the head.
		for idx := range victim.entries {
			e := &victim.entries[idx]
			if e.dead || e.obj == nil {
				continue
			}
			ref := l.appendEntry(logEntry{key: e.key, obj: e.obj, size: e.size})
			l.index[e.key] = ref
			movedTotal += e.size
		}
		l.alloc -= victim.appended
		delete(l.segs, victim.id)
		l.cleaned++
	}
	l.moved += movedTotal
	return movedTotal
}

func segUtil(s *segment) float64 {
	if s.appended == 0 {
		return 0
	}
	return float64(s.live) / float64(s.appended)
}
