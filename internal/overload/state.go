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

// The state machine's thresholds. Each signal is normalized against
// its High reference (1.0 = "at the overload threshold"); the pressure
// score is the max across signals. Enter thresholds move the state up
// immediately; moving down requires the score at or below the exit
// threshold AND minDwell in the current state, one step at a time —
// the hysteresis that prevents flapping. The controller samples fast
// and dwells briefly so that the overload drill's spike
// (experiments/overload.go) crosses the thresholds and the state walks
// back to Normal within the run.
const (
	sampleEvery = time.Second

	queueHigh       = 6           // queued requests
	oomRateHigh     = 2.5         // OOM kills per second
	reclaimRateHigh = 4           // reclaim failures per second
	latencyHigh     = time.Second // store op p99

	brownoutEnter = 1.0
	brownoutExit  = 0.4
	shedEnter     = 2.0
	shedExit      = 0.6
	minDwell      = 3 * time.Second
)

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
func NewController(env *sim.Env, source func() Signals) *Controller {
	return &Controller{env: env, source: source, since: env.Now()}
}

// OnChange registers a state-change callback. Register before Start.
func (c *Controller) OnChange(fn func(from, to State)) {
	c.onChange = append(c.onChange, fn)
}

// Start begins periodic sampling; it runs until the environment stops.
func (c *Controller) Start() {
	c.env.Every(sampleEvery, func() bool {
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
	switch target := targetState(score); {
	case target > from:
		to = target // upward moves are immediate: overload will not wait
	case target < from && now-c.since >= minDwell && score <= c.exit(from):
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
	score := s.QueueDepth / queueHigh
	if c.havePrev {
		secs := sampleEvery.Seconds()
		score = max(score, (s.OOMKills-c.prev.OOMKills)/secs/oomRateHigh)
		score = max(score, (s.ReclaimFailures-c.prev.ReclaimFailures)/secs/reclaimRateHigh)
	}
	return max(score, s.StoreLatencyP99.Seconds()/latencyHigh.Seconds())
}

// exit is the threshold the score must reach to leave state
// downward.
func (c *Controller) exit(s State) float64 {
	if s >= Shed {
		return shedExit
	}
	return brownoutExit
}

// targetState maps a score to the state its enter thresholds justify.
func targetState(score float64) State {
	switch {
	case score >= shedEnter:
		return Shed
	case score >= brownoutEnter:
		return Brownout
	default:
		return Normal
	}
}
