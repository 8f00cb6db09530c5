package overload

import (
	"time"

	"ofc/internal/sim"
)

// Signals is one sample of the health signals the degradation
// controller consumes. OOMKills and ReclaimFailures are cumulative
// counters (the controller differentiates them into rates);
// QueueDepth and StoreLatencyP99 are instantaneous.
type Signals struct {
	QueueDepth      float64
	OOMKills        float64
	ReclaimFailures float64
	StoreLatencyP99 time.Duration
}

// ControllerConfig tunes the state machine. Each signal is normalized
// against its High reference (1.0 = "at the overload threshold"); the
// pressure score is the max across signals. Enter thresholds move the
// state up immediately; moving down requires the score at or below the
// exit threshold AND MinDwell in the current state, one step at a
// time — the hysteresis that prevents flapping.
type ControllerConfig struct {
	SampleEvery time.Duration

	QueueHigh       float64       // queued requests
	OOMRateHigh     float64       // OOM kills per second
	ReclaimRateHigh float64       // reclaim failures per second
	LatencyHigh     time.Duration // store op p99

	BrownoutEnter float64
	BrownoutExit  float64
	ShedEnter     float64
	ShedExit      float64
	MinDwell      time.Duration
}

// DefaultControllerConfig returns thresholds sized for the testbed
// deployments.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		SampleEvery:     time.Second,
		QueueHigh:       16,
		OOMRateHigh:     2,
		ReclaimRateHigh: 2,
		LatencyHigh:     50 * time.Millisecond,
		BrownoutEnter:   1.0,
		BrownoutExit:    0.5,
		ShedEnter:       2.0,
		ShedExit:        1.0,
		MinDwell:        5 * time.Second,
	}
}

// Transition is one recorded state change.
type Transition struct {
	At    sim.Time
	From  State
	To    State
	Score float64
}

// Controller samples the health signals on the virtual clock and
// drives the Normal → Brownout → Shed state machine.
type Controller struct {
	env    *sim.Env
	cfg    ControllerConfig
	source func() Signals

	state       State
	since       sim.Time
	prev        Signals
	havePrev    bool
	score       float64
	transitions []Transition
	onChange    []func(from, to State)
}

// NewController builds a controller reading signals from source.
// Call Start to begin sampling.
func NewController(env *sim.Env, cfg ControllerConfig, source func() Signals) *Controller {
	return &Controller{env: env, cfg: cfg, source: source, since: env.Now()}
}

// OnChange registers a state-change callback. Register before Start.
func (c *Controller) OnChange(fn func(from, to State)) {
	c.onChange = append(c.onChange, fn)
}

// Start begins periodic sampling; it runs until the environment stops.
func (c *Controller) Start() {
	c.env.Every(c.cfg.SampleEvery, func() bool {
		c.Tick()
		return true
	})
}

// State reports the current degradation level.
func (c *Controller) State() State { return c.state }

// Score reports the last computed pressure score.
func (c *Controller) Score() float64 { return c.score }

// Transitions returns the recorded state changes.
func (c *Controller) Transitions() []Transition {
	out := make([]Transition, len(c.transitions))
	copy(out, c.transitions)
	return out
}

// Tick takes one sample and applies the transition rules. Start calls
// it on the sampling period; tests may call it directly.
func (c *Controller) Tick() {
	s := c.source()
	now := c.env.Now()
	score := c.pressure(s)
	c.prev, c.havePrev = s, true
	c.score = score

	from := c.state
	to := from
	switch target := targetState(score, c.cfg); {
	case target > from:
		to = target // upward moves are immediate: overload will not wait
	case target < from && now-c.since >= c.cfg.MinDwell && score <= c.exit(from):
		to = from - 1 // downward moves step one level after dwelling
	}
	if to == from {
		return
	}
	c.state = to
	c.since = now
	c.transitions = append(c.transitions, Transition{At: now, From: from, To: to, Score: score})
	for _, fn := range c.onChange {
		fn(from, to)
	}
}

// pressure computes the max-normalized pressure score from the
// sample, using the previous sample to turn cumulative counters into
// rates.
func (c *Controller) pressure(s Signals) float64 {
	score := ratio(s.QueueDepth, c.cfg.QueueHigh)
	if c.havePrev {
		secs := c.cfg.SampleEvery.Seconds()
		score = maxf(score, ratio((s.OOMKills-c.prev.OOMKills)/secs, c.cfg.OOMRateHigh))
		score = maxf(score, ratio((s.ReclaimFailures-c.prev.ReclaimFailures)/secs, c.cfg.ReclaimRateHigh))
	}
	score = maxf(score, ratio(s.StoreLatencyP99.Seconds(), c.cfg.LatencyHigh.Seconds()))
	return score
}

// exit is the threshold the score must reach to leave state
// downward.
func (c *Controller) exit(s State) float64 {
	if s >= Shed {
		return c.cfg.ShedExit
	}
	return c.cfg.BrownoutExit
}

// targetState maps a score to the state its enter thresholds justify.
func targetState(score float64, cfg ControllerConfig) State {
	switch {
	case score >= cfg.ShedEnter:
		return Shed
	case score >= cfg.BrownoutEnter:
		return Brownout
	default:
		return Normal
	}
}

func ratio(v, high float64) float64 {
	if high <= 0 {
		return 0
	}
	return v / high
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
