package memctl

// WindowSlack is the paper's §6.4 estimator: keep a sliding window of
// recent churn samples (absolute reserved-memory movement per sampling
// period) and size the slack pool to the window maximum, clamped to
// [MinSlack, MaxSlack]. Until the first sample arrives it has no
// opinion, so the agent keeps its provisioned initial slack — exactly
// the pre-refactor empty-window no-op.
type WindowSlack struct {
	window   int
	min, max int64
	churn    []int64
}

// NewWindowSlack builds the sliding-window estimator from params.
func NewWindowSlack(p Params) *WindowSlack {
	w := p.ChurnWindow
	if w <= 0 {
		w = DefaultParams().ChurnWindow
	}
	return &WindowSlack{window: w, min: p.MinSlack, max: p.MaxSlack}
}

// Observe implements SlackEstimator: append the sample, trim to the
// window length.
func (w *WindowSlack) Observe(delta int64) {
	if delta < 0 {
		delta = -delta
	}
	w.churn = append(w.churn, delta)
	if len(w.churn) > w.window {
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
	if max < w.min {
		max = w.min
	}
	if max > w.max {
		max = w.max
	}
	return max, true
}

// StaticSlack is the ablation baseline: a fixed slack pool that
// ignores churn entirely. It isolates how much of OFC's win comes
// from *adapting* the slack versus merely *having* one.
type StaticSlack struct {
	target int64
}

// NewStaticSlack builds the fixed estimator; a zero StaticSlack param
// falls back to MinSlack.
func NewStaticSlack(p Params) *StaticSlack {
	t := p.StaticSlack
	if t <= 0 {
		t = p.MinSlack
	}
	return &StaticSlack{target: t}
}

// Observe implements SlackEstimator (ignored).
func (s *StaticSlack) Observe(int64) {}

// Target implements SlackEstimator.
func (s *StaticSlack) Target() (int64, bool) { return s.target, true }
