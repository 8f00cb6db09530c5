package mapfake

// A directive on the offending line suppresses the finding.
func allowed(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		//lint:allow mapiter consumer is a commutative reducer documented to accept any order
		vals = append(vals, v)
	}
	return vals
}

// The hidden-sink finding is suppressed the same way, with the reason
// the callers are safe.
func allowedEach(m map[string]int, fn func(string, int)) {
	for k, v := range m {
		fn(k, v) //lint:allow mapiter the only caller sums the values
	}
}
