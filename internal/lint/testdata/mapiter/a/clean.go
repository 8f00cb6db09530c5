package mapfake

import (
	"sort"
	"strconv"
)

// Order-insensitive bodies are legal: commutative accumulation, keyed
// writes, deletes, and loop-local scratch that dies with the
// iteration.
func cleanAccumulate(m map[string]int, stale map[string]bool) int {
	sum := 0
	out := map[string]int{}
	for k, v := range m {
		sum += v
		out[k] = v * 2
		if v == 0 {
			delete(stale, k)
		}
		var local []int // loop-local: no order escapes
		local = append(local, v)
		_ = local
	}
	return sum
}

// The canonical collect-then-sort idiom re-establishes a deterministic
// order before anything observes the slice.
func cleanCollectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Other calls between the loop and the sort do not hide the sort.
func cleanCollectLabelSort(m map[string]int) []string {
	keys := make([]string, 0, len(m)+1)
	for k := range m {
		keys = append(keys, k)
	}
	keys = append(keys, strconv.Itoa(len(m)))
	sort.Strings(keys)
	return keys
}

// sort.Slice with a comparator counts too.
func cleanCollectSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// A running minimum of the compared value itself is order-insensitive
// (equal scores are equal values), and so is a selection whose
// condition breaks the tie on a unique key.
func cleanSelect(m map[int]*seg) (int64, *seg) {
	min := int64(1) << 62
	var victim *seg
	var victimUtil float64
	for _, s := range m {
		if s.live < min {
			min = s.live
		}
		if u := util(s); victim == nil || u < victimUtil || (u == victimUtil && s.id < victim.id) {
			victim, victimUtil = s, u
		}
	}
	return min, victim
}

// Calling a function defined here is not the hidden-sink shape: its
// body is in view and is checked like any other.
func cleanLocalCall(m map[string]*seg) int64 {
	var total int64
	add := func(s *seg) { total += s.live }
	for _, s := range m {
		add(s)
	}
	return total
}
