// Package chaos is a deterministic fault-injection framework for the
// OFC testbed. A Schedule is a list of timed fault events — node
// crash/restart, network partition/heal, link degradation, packet
// loss, disk slowdown — armed on the sim virtual clock, so a given
// (schedule, seed) pair replays identically on every run.
//
// The package only knows the fabric (internal/simnet) and the clock
// (internal/sim). Higher layers register hooks on the Injector to
// translate node-level faults into subsystem actions: the kvstore
// crashes and recovers the cache server, the FaaS platform drains the
// invoker, and so on. That keeps chaos dependency-free and lets tests
// inject faults into any subset of the stack.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// Kind enumerates fault event types.
type Kind int

const (
	// Crash fail-stops a node: transfers from/to it fail, and
	// registered OnCrash hooks run (kvstore crash, invoker drain).
	Crash Kind = iota
	// Restart revives a crashed node and runs OnRestart hooks.
	Restart
	// Partition cuts the undirected link Node<->Peer.
	Partition
	// Heal restores a partitioned link.
	Heal
	// DegradeLink stretches the link's latency by LatencyFactor and
	// shrinks its bandwidth by BandwidthFactor.
	DegradeLink
	// ResetLink clears degradation, loss and partition on the link.
	ResetLink
	// PacketLoss sets the link's per-transfer loss probability.
	PacketLoss
	// DiskSlow multiplies the node's disk service time by DiskFactor.
	DiskSlow
	// Hook runs an arbitrary callback at its scheduled time — the
	// escape hatch for drills that need non-fabric actions (load
	// spikes, configuration flips) phased against fabric faults on the
	// same deterministic timeline.
	Hook
)

// String names the event kind for logs and reports.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case DegradeLink:
		return "degrade-link"
	case ResetLink:
		return "reset-link"
	case PacketLoss:
		return "packet-loss"
	case DiskSlow:
		return "disk-slow"
	case Hook:
		return "hook"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault. Node is the subject; Peer matters only for
// link events. Factor fields are interpreted per Kind.
type Event struct {
	At   time.Duration // virtual time offset from Injector.Start
	Kind Kind
	Node simnet.NodeID
	Peer simnet.NodeID // link events only

	LatencyFactor   float64 // DegradeLink
	BandwidthFactor float64 // DegradeLink
	LossProb        float64 // PacketLoss
	DiskFactor      float64 // DiskSlow

	// Hook events only: Name labels the log entry, Fn runs at At.
	Name string
	Fn   func()
}

// String renders one event for the applied-event log.
func (e Event) String() string {
	switch e.Kind {
	case Partition, Heal, ResetLink:
		return fmt.Sprintf("%v %s n%d<->n%d", e.At, e.Kind, e.Node, e.Peer)
	case DegradeLink:
		return fmt.Sprintf("%v %s n%d<->n%d lat=x%.1f bw=x%.2f", e.At, e.Kind, e.Node, e.Peer, e.LatencyFactor, e.BandwidthFactor)
	case PacketLoss:
		return fmt.Sprintf("%v %s n%d<->n%d p=%.3f", e.At, e.Kind, e.Node, e.Peer, e.LossProb)
	case DiskSlow:
		return fmt.Sprintf("%v %s n%d x%.1f", e.At, e.Kind, e.Node, e.DiskFactor)
	case Hook:
		return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Name)
	default:
		return fmt.Sprintf("%v %s n%d", e.At, e.Kind, e.Node)
	}
}

// Schedule is an ordered list of fault events. The zero value is an
// empty schedule; builder methods append and return the schedule for
// chaining.
type Schedule struct {
	events []Event
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Add appends an arbitrary event.
func (s *Schedule) Add(e Event) *Schedule {
	s.events = append(s.events, e)
	return s
}

// CrashAt fail-stops node at t.
func (s *Schedule) CrashAt(t time.Duration, node simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: Crash, Node: node})
}

// RestartAt revives node at t.
func (s *Schedule) RestartAt(t time.Duration, node simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: Restart, Node: node})
}

// PartitionAt cuts the a<->b link at t.
func (s *Schedule) PartitionAt(t time.Duration, a, b simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: Partition, Node: a, Peer: b})
}

// HealAt restores the a<->b link at t.
func (s *Schedule) HealAt(t time.Duration, a, b simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: Heal, Node: a, Peer: b})
}

// DegradeLinkAt stretches the a<->b link at t: latency multiplied by
// latFactor, bandwidth by bwFactor.
func (s *Schedule) DegradeLinkAt(t time.Duration, a, b simnet.NodeID, latFactor, bwFactor float64) *Schedule {
	return s.Add(Event{At: t, Kind: DegradeLink, Node: a, Peer: b, LatencyFactor: latFactor, BandwidthFactor: bwFactor})
}

// ResetLinkAt clears all faults on the a<->b link at t.
func (s *Schedule) ResetLinkAt(t time.Duration, a, b simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: ResetLink, Node: a, Peer: b})
}

// DiskSlowAt multiplies node's disk service time by factor at t;
// factor 1 restores full speed.
func (s *Schedule) DiskSlowAt(t time.Duration, node simnet.NodeID, factor float64) *Schedule {
	return s.Add(Event{At: t, Kind: DiskSlow, Node: node, DiskFactor: factor})
}

// HookAt schedules a named callback at t.
func (s *Schedule) HookAt(t time.Duration, name string, fn func()) *Schedule {
	return s.Add(Event{At: t, Kind: Hook, Name: name, Fn: fn})
}

// OverloadCrash builds the combined overload+crash drill: spike and
// calm callbacks phased around a mid-spike crash/restart of victim.
// The spike callback fires at start, the victim crashes at
// start+crashAfter and restarts downtime later, and calm fires at
// start+spikeLen — the schedule the overload state machine must ride
// out and then re-enter Normal from.
func (s *Schedule) OverloadCrash(start, spikeLen, crashAfter, downtime time.Duration, victim simnet.NodeID, spike, calm func()) *Schedule {
	s.HookAt(start, "spike", spike)
	s.CrashAt(start+crashAfter, victim)
	s.RestartAt(start+crashAfter+downtime, victim)
	s.HookAt(start+spikeLen, "calm", calm)
	return s
}

// KillRotation appends a crash of each node in victims in turn, one
// every period starting at start, each followed by a restart downtime
// later. It models the "kill one cache node per minute" chaos drill.
func (s *Schedule) KillRotation(start, period, downtime time.Duration, victims ...simnet.NodeID) *Schedule {
	t := start
	for _, v := range victims {
		s.CrashAt(t, v)
		s.RestartAt(t+downtime, v)
		t += period
	}
	return s
}

// Events returns the schedule sorted by time (stable, so same-time
// events keep insertion order). The returned slice is a copy.
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len reports the number of scheduled events.
func (s *Schedule) Len() int { return len(s.events) }

// Injector arms a schedule on the virtual clock and applies each event
// to the fabric when it fires. Hooks let higher layers react to
// node-level lifecycle events.
type Injector struct {
	env *sim.Env
	net *simnet.Network
	sch *Schedule

	// OnCrash runs after the node is marked down in the fabric.
	OnCrash func(simnet.NodeID)
	// OnRestart runs after the node is marked up again.
	OnRestart func(simnet.NodeID)

	applied []string
}

// NewInjector binds a schedule to a fabric. Seed drives probabilistic
// faults (packet-loss retransmission draws) so runs are reproducible.
func NewInjector(net *simnet.Network, sch *Schedule, seed int64) *Injector {
	net.SeedFaults(seed)
	return &Injector{env: net.Env(), net: net, sch: sch}
}

// Start arms every scheduled event on the virtual clock. Call it once,
// before or while the simulation runs; events before the current
// virtual time fire immediately.
func (inj *Injector) Start() {
	for _, e := range inj.sch.Events() {
		e := e
		inj.env.After(e.At, func() { inj.apply(e) })
	}
}

func (inj *Injector) apply(e Event) {
	switch e.Kind {
	case Crash:
		inj.net.SetNodeDown(e.Node, true)
		if inj.OnCrash != nil {
			inj.OnCrash(e.Node)
		}
	case Restart:
		inj.net.SetNodeDown(e.Node, false)
		if inj.OnRestart != nil {
			inj.OnRestart(e.Node)
		}
	case Partition:
		inj.net.Partition(e.Node, e.Peer)
	case Heal:
		inj.net.Heal(e.Node, e.Peer)
	case DegradeLink:
		inj.net.DegradeLink(e.Node, e.Peer, e.LatencyFactor, e.BandwidthFactor)
	case ResetLink:
		inj.net.ResetLink(e.Node, e.Peer)
	case PacketLoss:
		inj.net.SetPacketLoss(e.Node, e.Peer, e.LossProb)
	case DiskSlow:
		inj.net.SetDiskFactor(e.Node, e.DiskFactor)
	case Hook:
		if e.Fn != nil {
			e.Fn()
		}
	}
	inj.applied = append(inj.applied, fmt.Sprintf("%v: %s", inj.env.Now(), e))
}

// Applied returns the log of events applied so far, in firing order.
func (inj *Injector) Applied() []string {
	out := make([]string, len(inj.applied))
	copy(out, inj.applied)
	return out
}
