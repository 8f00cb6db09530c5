package memctl

// WindowSlack is the paper's §6.4 estimator: keep a sliding window of
// recent churn samples (absolute reserved-memory movement per sampling
// period) and size the slack pool to the window maximum, clamped to
// [64 MB, 1 GB]. Until the first sample arrives it has no
// opinion, so the agent keeps its provisioned initial slack — exactly
// the pre-refactor empty-window no-op.
type WindowSlack struct {
	churn []int64
}

// NewWindowSlack builds the sliding-window estimator.
func NewWindowSlack() *WindowSlack { return &WindowSlack{} }

// Observe implements SlackEstimator: append the sample, trim to the
// window length.
func (w *WindowSlack) Observe(delta int64) {
	if delta < 0 {
		delta = -delta
	}
	w.churn = append(w.churn, delta)
	if len(w.churn) > churnWindow {
		w.churn = w.churn[1:]
	}
}

// Target implements SlackEstimator: the clamped window maximum.
func (w *WindowSlack) Target() (int64, bool) {
	if len(w.churn) == 0 {
		return 0, false
	}
	var max int64
	for _, c := range w.churn {
		if c > max {
			max = c
		}
	}
	if max < minSlack {
		max = minSlack
	}
	if max > maxSlack {
		max = maxSlack
	}
	return max, true
}

// StaticSlack is the ablation baseline: a fixed slack pool that
// ignores churn entirely and holds InitialSlack. It isolates how much
// of OFC's win comes from *adapting* the slack versus merely *having*
// one.
type StaticSlack struct{}

// NewStaticSlack builds the fixed estimator.
func NewStaticSlack() *StaticSlack { return &StaticSlack{} }

// Observe implements SlackEstimator (ignored).
func (s *StaticSlack) Observe(int64) {}

// Target implements SlackEstimator.
func (s *StaticSlack) Target() (int64, bool) { return InitialSlack, true }
