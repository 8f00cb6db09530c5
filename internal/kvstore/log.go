package kvstore

import "slices"

// Log-structured memory, the storage engine RAMCloud builds masters on:
// objects are only ever appended to the head segment; overwrites and
// deletes leave dead entries behind; a cleaner compacts low-utilization
// segments by relocating their live entries to the head and freeing
// the segment. Memory is accounted two ways: live bytes (the sum of
// current object sizes, what eviction policies reason about) and
// allocated bytes (segment memory actually held, what the cleaner
// bounds).
//
// A segment keeps its entries in fixed blocks, so it grows without
// copying what it holds and without room it never fills. A cleaned
// segment goes to the log's spare list and its blocks to the log's free
// list, as RAMCloud returns a cleaned segment to the free pool, and the
// next roll and appends reuse them: once the cleaner runs, neither
// appends nor cleaning allocate.

// blockLen is the number of entries in a block.
const blockLen = 32

// entryBlock is a block of a segment's entries.
type entryBlock [blockLen]logEntry

// segment is one append-only arena.
type segment struct {
	blocks []*entryBlock
	n      int // entries appended
	// appended is the byte volume ever written into the segment;
	// live is the portion still current.
	appended int64
	live     int64
}

// entry returns the segment's i-th entry.
func (s *segment) entry(i int) *logEntry { return &s.blocks[i/blockLen][i%blockLen] }

// logEntry is one record: an object version or a tombstone. A live
// entry's id is held by the index; a dead entry's id is never read,
// and a dead entry holds no object.
type logEntry struct {
	obj  *object // nil for tombstones
	size int64
	id   objID
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
	head    *segment
	segs    []*segment // in the order opened, the head last
	spare   []*segment // cleaned segments, emptied, for roll to reuse
	free    []*entryBlock
	index   table[entryRef]
	live    int64
	alloc   int64
	cleaned int64 // cleanings performed
	moved   int64 // bytes relocated by the cleaner
}

// newObjLog returns an empty log with the given segment capacity, its
// index over keys.
func newObjLog(segCap int64, keys *keyTable) *objLog {
	l := &objLog{segCap: segCap, index: table[entryRef]{keys: keys}}
	l.roll()
	return l
}

// roll opens a head segment, a spare when the cleaner left one.
func (l *objLog) roll() {
	var s *segment
	if n := len(l.spare); n > 0 {
		s = l.spare[n-1]
		l.spare = l.spare[:n-1]
	} else {
		s = &segment{}
	}
	l.segs = append(l.segs, s)
	l.head = s
}

// appendEntry adds a record to the head, rolling when full.
func (l *objLog) appendEntry(e logEntry) entryRef {
	if l.head.appended+e.size > l.segCap && l.head.appended > 0 {
		l.roll()
	}
	h := l.head
	if h.n == len(h.blocks)*blockLen {
		var b *entryBlock
		if n := len(l.free); n > 0 {
			b = l.free[n-1]
			l.free = l.free[:n-1]
		} else {
			b = new(entryBlock)
		}
		h.blocks = append(h.blocks, b)
	}
	*h.entry(h.n) = e
	h.n++
	h.appended += e.size
	l.alloc += e.size
	if !e.dead {
		h.live += e.size
	}
	return entryRef{seg: h, idx: h.n - 1}
}

// killEntry marks a located entry dead and adjusts accounting. The
// entry lets go of its object: nothing reads a dead entry's object, and
// a log that is never cleaned would otherwise keep every overwritten
// record reachable.
func (l *objLog) killEntry(ref entryRef) {
	e := ref.seg.entry(ref.idx)
	if e.dead {
		return
	}
	e.dead = true
	e.obj = nil
	ref.seg.live -= e.size
}

// put stores (or overwrites) an object; returns the live-byte delta.
func (l *objLog) put(id objID, obj *object) int64 {
	var delta int64 = obj.meta.Size
	if old, ok := l.index.get(id); ok {
		size := old.seg.entry(old.idx).size
		delta -= size
		l.killEntry(old)
		l.live -= size
	}
	ref := l.appendEntry(logEntry{id: id, obj: obj, size: obj.meta.Size})
	l.index.set(id, ref)
	l.live += obj.meta.Size
	return delta
}

// get returns the current object for id.
func (l *objLog) get(id objID) (*object, bool) {
	ref, ok := l.index.get(id)
	if !ok {
		return nil, false
	}
	return ref.seg.entry(ref.idx).obj, true
}

// delete removes id (appending a zero-size tombstone, as RAMCloud
// does so deletes survive crashes); returns the freed live bytes.
func (l *objLog) delete(id objID) (int64, bool) {
	ref, ok := l.index.get(id)
	if !ok {
		return 0, false
	}
	size := ref.seg.entry(ref.idx).size
	l.killEntry(ref)
	l.live -= size
	l.index.del(id)
	l.appendEntry(logEntry{id: id, size: 0, dead: true})
	return size, true
}

// each visits every live object, in id order.
func (l *objLog) each(fn func(id objID, obj *object)) {
	l.index.each(func(id objID, ref *entryRef) { fn(id, ref.seg.entry(ref.idx).obj) })
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
		// the caller sleeps for them. The segments are in id order, so
		// the first of the lowest is the oldest.
		vi := -1
		var victimUtil float64
		for i, s := range l.segs {
			if s == l.head {
				continue
			}
			if u := segUtil(s); vi < 0 || u < victimUtil {
				vi, victimUtil = i, u
			}
		}
		if vi < 0 {
			break
		}
		victim := l.segs[vi]
		if victimUtil >= 0.98 && l.alloc-victim.appended < target {
			// Only nearly-full-live segments remain: compaction cannot
			// reclaim meaningfully.
			break
		}
		// Relocate live entries to the head.
		for idx := range victim.n {
			e := victim.entry(idx)
			if e.dead {
				continue
			}
			ref := l.appendEntry(logEntry{id: e.id, obj: e.obj, size: e.size})
			l.index.set(e.id, ref)
			movedTotal += e.size
		}
		l.alloc -= victim.appended
		l.segs = slices.Delete(l.segs, vi, vi+1)
		l.recycle(victim)
		l.cleaned++
	}
	l.moved += movedTotal
	return movedTotal
}

// recycle empties a cleaned segment onto the spare list and its blocks
// onto the free list. The cleaner has re-indexed every live entry it
// held, so no entryRef names it.
func (l *objLog) recycle(s *segment) {
	for _, b := range s.blocks {
		*b = entryBlock{} // drop the object pointers for the collector
		l.free = append(l.free, b)
	}
	*s = segment{blocks: s.blocks[:0]}
	l.spare = append(l.spare, s)
}

func segUtil(s *segment) float64 {
	if s.appended == 0 {
		return 0
	}
	return float64(s.live) / float64(s.appended)
}
