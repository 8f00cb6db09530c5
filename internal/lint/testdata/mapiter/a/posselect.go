package mapfake

type seg struct {
	id         int
	live, size int64
}

func util(s *seg) float64 { return float64(s.live) / float64(s.size) }

// Keeping the entry with the best score: when two entries score the
// same, the one the randomized order visits first survives (last, with
// a non-strict comparison), and everything derived from the choice
// moves with it.
func badSelect(m map[int]*seg) (*seg, int) {
	var victim *seg
	for _, s := range m {
		if victim == nil || util(s) < util(victim) {
			victim = s // want ".victim. keeps the best entry of a map iteration with no tie-break"
		}
	}
	bestID, bestLive := -1, int64(-1)
	for id, s := range m {
		if s.live >= bestLive {
			bestID, bestLive = id, s.live // want ".bestID. keeps the best entry of a map iteration with no tie-break"
		}
	}
	return victim, bestID
}

// Handing each entry to a function the caller supplied: whatever the
// callee does with them — append, print, spawn — it does in map order,
// and this analyzer never sees the callee.
func badEach(m map[string]*seg, fn func(key string, s *seg)) {
	for k, s := range m {
		fn(k, s) // want "calling parameter .fn. inside map iteration hands the entries to the caller's function in randomized order"
	}
}
