package core

import (
	"errors"
	"fmt"
	"time"

	"ofc/internal/faas"
	"ofc/internal/memctl"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/trace"
)

// The per-node agent's fixed parameters, from the paper (§6.3, §6.4).
const (
	// initialSlack is the provisioned slack pool (paper: 100 MB).
	initialSlack int64 = 100 << 20
	// churnWindow is the number of samples in the sliding window.
	churnWindow = 5
	// minSlack and maxSlack clamp the slack estimators.
	minSlack int64 = 64 << 20
	maxSlack int64 = 1 << 30
	// minAccess is the §6.3 eviction criterion n_access < 5 (with
	// CacheAgentConfig.MaxIdle).
	minAccess int64 = 5
	// growEvery is the background growth cadence (growth also runs
	// after every completed invocation on the node).
	growEvery = 5 * time.Second
	// poolReconfigTime is the asynchronous RAMCloud memory-pool
	// reconfiguration cost per scaling operation (off the critical
	// path; Table 2 sums it).
	poolReconfigTime = 300 * time.Millisecond
	// shrinkBaseNoEvict and shrinkBaseEvict are the critical-path
	// costs of a cache shrink without data movement (Figure 8 Sc1:
	// ≈289 µs) and of an eviction-based shrink (Sc3: ≈373 µs).
	shrinkBaseNoEvict = 289 * time.Microsecond
	shrinkBaseEvict   = 373 * time.Microsecond
)

// CacheAgentConfig tunes the per-node agent (§6.3, §6.4): the policy
// and the cadences -exp policies varies.
type CacheAgentConfig struct {
	// SlackAdjustEvery and ChurnSampleEvery drive the sliding-window
	// slack estimation (paper: 120 s and 60 s).
	SlackAdjustEvery time.Duration
	ChurnSampleEvery time.Duration
	// EvictionEvery is the periodic eviction cadence (paper: 300 s).
	EvictionEvery time.Duration
	// MaxIdle is the §6.3 idleness eviction criterion (idle > 30 min).
	MaxIdle time.Duration
	// Policy selects the memctl eviction × slack combination; zero-value
	// fields mean the paper's defaults (threshold eviction, window
	// slack).
	Policy memctl.Spec
}

// DefaultCacheAgentConfig returns the paper's parameters.
func DefaultCacheAgentConfig() CacheAgentConfig {
	return CacheAgentConfig{
		SlackAdjustEvery: 120 * time.Second,
		ChurnSampleEvery: 60 * time.Second,
		EvictionEvery:    300 * time.Second,
		MaxIdle:          30 * time.Minute,
	}
}

// memctlParams maps the agent config onto the policy knobs. The age
// floor is one eviction period, exactly the pre-refactor grace window.
func (c CacheAgentConfig) memctlParams() memctl.Params {
	return memctl.Params{
		MinAccess:   minAccess,
		MaxIdle:     c.MaxIdle,
		AgeFloor:    c.EvictionEvery,
		MinSlack:    minSlack,
		MaxSlack:    maxSlack,
		ChurnWindow: churnWindow,
		StaticSlack: initialSlack,
		HighWater:   memctl.DefaultParams().HighWater,
	}
}

// AgentMetrics are the per-agent counters: Table 2's scaling events
// and the policy grid's object counts.
type AgentMetrics struct {
	ScaleUps            int64
	ScaleUpTime         time.Duration
	ScaleDownNoEviction int64
	ScaleDownMigration  int64
	ScaleDownEviction   int64
	ScaleDownTime       time.Duration
	PeriodicEvictions   int64
	ReclaimFailures     int64
	// Evictions counts objects freed by eviction (periodic sweeps and
	// reclamation), Migrations those freed by migration-by-promotion,
	// WriteBacks the dirty victims whose write-back a sweep or a
	// reclamation triggered.
	Evictions, Migrations, WriteBacks int64
}

// CacheAgent actuates the memory control plane on one worker node
// (§6.4): it hoards unused memory into the cache, shrinks the cache
// under sandbox pressure, maintains the slack pool, and runs the
// periodic eviction sweep. Every decision — which objects are victims,
// how much slack to hold, in what order to migrate or evict — is
// delegated to the memctl policy set; the agent owns only execution:
// grant arithmetic, write-backs, the Figure-8 scaling costs.
//
// The agent controls the cache purely through its memory view — it
// needs usage, limits, the object census and the reclamation verbs,
// nothing else of the engine.
type CacheAgent struct {
	env  *sim.Env
	node simnet.NodeID
	inv  *faas.Invoker
	kv   store.MemoryView
	rc   *RCLib
	cfg  CacheAgentConfig
	pol  memctl.Policies

	// tracer records reclaim/evict.sweep spans as trace-0 roots (nil =
	// off). System.EnableTracing sets it before Start.
	tracer *trace.Tracer

	slack        int64
	lastReserved int64
	pressure     memctl.Pressure
	metrics      AgentMetrics
}

// NewCacheAgent builds the agent for one node over the engine's
// memory-control view, instantiating its own policy set from the
// config's spec (policy state — GDSF priorities, slack windows — is
// per node).
func NewCacheAgent(env *sim.Env, inv *faas.Invoker, kv store.MemoryView, rc *RCLib, cfg CacheAgentConfig) *CacheAgent {
	return &CacheAgent{
		env: env, node: inv.Node(), inv: inv, kv: kv, rc: rc, cfg: cfg,
		pol:   memctl.MustBuild(cfg.Policy, cfg.memctlParams()),
		slack: initialSlack, lastReserved: inv.Reserved(),
	}
}

// Node returns the agent's node.
func (a *CacheAgent) Node() simnet.NodeID { return a.node }

// Slack returns the current slack pool size.
func (a *CacheAgent) Slack() int64 { return a.slack }

// Metrics returns a snapshot of the agent counters.
func (a *CacheAgent) Metrics() AgentMetrics { return a.metrics }

// Start arms the periodic loops: growth, slack maintenance, periodic
// eviction. It also performs the initial grant.
func (a *CacheAgent) Start() {
	a.Grow()
	a.env.Every(growEvery, func() bool {
		a.Grow()
		return true
	})
	a.env.Every(a.cfg.ChurnSampleEvery, func() bool {
		a.sampleChurn()
		return true
	})
	a.env.Every(a.cfg.SlackAdjustEvery, func() bool {
		a.adjustSlack()
		return true
	})
	a.env.Every(a.cfg.EvictionEvery, func() bool {
		a.periodicEviction()
		return true
	})
}

// Admitted tells the eviction policy that the proxy is admitting a
// missed input into this node's cache, with the predictor's
// caching-benefit score.
func (a *CacheAgent) Admitted(key string, benefit float64) {
	a.pol.Eviction.Admitted(key, benefit)
}

// Grow rebalances the cache grant to the node's current entitlement:
// the memory booked-but-unused by live sandboxes (§1, §6.4), bounded
// by the physically free memory minus the slack pool. Sandbox churn
// moves the entitlement in both directions, so this both grows and
// shrinks the cache — the scale-up/scale-down events of Table 2.
// Called at every placement, after every completion and periodically.
func (a *CacheAgent) Grow() {
	target := a.inv.BookedWaste()
	if free := a.inv.Capacity() - a.inv.Reserved() - a.slack; target > free {
		target = free
	}
	if target < 0 {
		target = 0
	}
	cur := a.inv.CacheGrant()
	const hysteresis = 1 << 20
	switch {
	case target > cur+hysteresis:
		a.setGrant(target, true, 0, 0)
	case target < cur-hysteresis:
		// Shrink the grant; free cached data first if usage exceeds
		// the new target.
		used, _ := a.kv.Usage(a.node)
		migrated, evicted := 0, 0
		if used > target {
			migrated, evicted = a.freeBytes(used - target)
		}
		a.setGrant(target, false, migrated, evicted)
	}
}

// setGrant is the one place the agent changes the cache grant: the
// invoker clamps it and writes it to the node, where the engine reads
// it as its memory limit. It counts the change as a Table 2 scale-up,
// or as a scale-down by how data was freed, each charged the RAMCloud
// pool reconfiguration, which runs off the critical path.
func (a *CacheAgent) setGrant(target int64, up bool, migrated, evicted int) {
	a.inv.SetCacheGrant(target)
	if up {
		a.metrics.ScaleUps++
		a.metrics.ScaleUpTime += poolReconfigTime
	} else {
		switch {
		case migrated > 0:
			a.metrics.ScaleDownMigration++
		case evicted > 0:
			a.metrics.ScaleDownEviction++
		default:
			a.metrics.ScaleDownNoEviction++
		}
		a.metrics.ScaleDownTime += poolReconfigTime
	}
}

// view captures the eviction policy's inputs for this node: census,
// occupancy and pressure.
func (a *CacheAgent) view() memctl.View {
	used, limit := a.kv.Usage(a.node)
	return memctl.View{
		Now:      a.env.Now(),
		Objects:  a.kv.Objects(a.node),
		Used:     used,
		Limit:    limit,
		Pressure: a.pressure,
	}
}

// freeBytes frees at least toFree bytes of cached data by executing
// memctl.PlanReclaim's recipe: evict along the first phase until the
// need is met, then (if short) trigger the asynchronous write-backs and
// walk the second phase, migrating each object with eviction as the
// fallback.
func (a *CacheAgent) freeBytes(toFree int64) (migrated, evicted int) {
	plan := memctl.PlanReclaim(a.kv.Objects(a.node))

	var freed []string
	wrotebacks := 0
	defer func() {
		for _, k := range freed {
			a.pol.Eviction.Forget(k)
		}
		a.metrics.Evictions += int64(evicted)
		a.metrics.Migrations += int64(migrated)
		a.metrics.WriteBacks += int64(wrotebacks)
	}()

	for _, s := range plan.First {
		if toFree <= 0 {
			break
		}
		if a.kv.Evict(s.Key) == nil {
			toFree -= s.Size
			evicted++
			freed = append(freed, s.Key)
		}
	}
	if toFree <= 0 {
		return
	}
	for _, key := range plan.WriteBacks {
		key := key
		a.env.Go(func() { a.rc.WriteBackNow(a.node, key) })
		wrotebacks++
	}
	for _, s := range plan.Second {
		if toFree <= 0 {
			break
		}
		if a.kv.MigrateToBackup(s.Key) == nil {
			toFree -= s.Size
			migrated++
			freed = append(freed, s.Key)
			continue
		}
		if a.kv.Evict(s.Key) == nil {
			toFree -= s.Size
			evicted++
			freed = append(freed, s.Key)
		}
	}
	return
}

// sampleChurn records the sandbox-memory movement since the last
// sample and feeds it to the slack estimator.
func (a *CacheAgent) sampleChurn() {
	cur := a.inv.Reserved()
	delta := cur - a.lastReserved
	if delta < 0 {
		delta = -delta
	}
	a.lastReserved = cur
	a.pol.Slack.Observe(delta)
}

// adjustSlack sets the slack pool from the estimator (§6.4); an
// estimator with no opinion yet leaves the provisioned slack as is.
func (a *CacheAgent) adjustSlack() {
	if t, ok := a.pol.Slack.Target(); ok {
		a.slack = t
	}
}

// ErrReclaim is the sentinel for a failed cache reclaim: the agent
// could not free the requested memory. Returned errors wrap it with
// context; match with errors.Is (never ==, per the senterr lint rule).
// The overload degradation controller consumes the matching
// ReclaimFailures counter as one of its pressure signals.
var ErrReclaim = errors.New("core: cache reclaim failed")

// SetPressure feeds the overload controller's urgency level into the
// policy inputs. Rising to brownout triggers an immediate sweep under
// the tightened criteria, so cache memory flows back to sandboxes
// while pressure lasts.
func (a *CacheAgent) SetPressure(p memctl.Pressure) {
	was := a.pressure
	a.pressure = p
	if p == memctl.PressureBrownout && was != p {
		a.env.Go(func() { a.periodicEviction() })
	}
}

// Reclaim implements the §6.4 fast-reclamation path, invoked by the
// platform (as MemoryGovernor) when a sandbox needs memory the cache
// holds. memctl.PlanReclaim orders the work (free grant first, then
// persisted outputs, then LRU inputs via migration-by-promotion, then
// eviction); the agent executes it and charges the critical-path time.
// Dirty outputs get their write-back triggered asynchronously. Returns
// the critical-path time spent.
func (a *CacheAgent) Reclaim(need int64) (took time.Duration, err error) {
	sp := a.tracer.Begin(0, 0, "reclaim", a.node)
	sp.SetNum("need", need)
	defer func() {
		if err != nil {
			sp.SetNum("err", 1)
		}
		a.tracer.End(&sp)
	}()
	start := a.env.Now()
	grant := a.inv.CacheGrant()
	if grant < need {
		a.metrics.ReclaimFailures++
		return 0, fmt.Errorf("node %d: need %d > grant %d: %w", a.node, need, grant, ErrReclaim)
	}
	used, _ := a.kv.Usage(a.node)
	freeInGrant := grant - used

	migrated, evicted := 0, 0
	if freeInGrant < need {
		toFree := need - freeInGrant
		migrated, evicted = a.freeBytes(toFree)
		used2, _ := a.kv.Usage(a.node)
		if grant-used2 < need {
			a.metrics.ReclaimFailures++
			return time.Duration(a.env.Now() - start),
				fmt.Errorf("node %d: freed only %d of %d needed: %w", a.node, grant-used2, need, ErrReclaim)
		}
	}

	// Charge the scaling base cost for the scenario (Figure 8).
	switch {
	case migrated > 0:
		// Promotion time was already charged by MigrateToBackup.
	case evicted > 0:
		a.env.Sleep(shrinkBaseEvict)
	default:
		a.env.Sleep(shrinkBaseNoEvict)
	}

	if migrated > 0 {
		sp.SetNum("migrated", int64(migrated))
	}
	if evicted > 0 {
		sp.SetNum("evicted", int64(evicted))
	}

	took = time.Duration(a.env.Now() - start)
	a.setGrant(grant-need, false, migrated, evicted)
	return took, nil
}

// periodicEviction runs the discretionary sweep: the eviction policy
// selects the victims (the paper's threshold policy applies §6.3's
// n_access/idle criteria, demand-driven policies trim to their
// watermark), the agent executes — dirty victims are written back
// before eviction, clean ones evicted directly.
func (a *CacheAgent) periodicEviction() {
	sp := a.tracer.Begin(0, 0, "evict.sweep", a.node)
	v := a.view()
	victims := a.pol.Eviction.Victims(v)
	for _, o := range victims {
		key := o.Key
		if o.Meta.Tags["dirty"] == "1" {
			a.env.Go(func() {
				if a.rc.WriteBackNow(a.node, key) {
					a.kv.Evict(key)
				}
			})
			a.metrics.WriteBacks++
			continue
		}
		if a.kv.Evict(key) == nil {
			a.metrics.PeriodicEvictions++
			a.metrics.Evictions++
			a.pol.Eviction.Forget(key)
		}
	}
	if len(victims) > 0 {
		sp.SetNum("victims", int64(len(victims)))
	}
	a.tracer.End(&sp)
}

// Governor adapts a set of agents to the faas.MemoryGovernor interface
// and routes the proxy's admission notices to the admitting node's
// agent.
type Governor struct {
	agents map[simnet.NodeID]*CacheAgent
}

// NewGovernor returns an empty governor; add agents with Add.
func NewGovernor() *Governor {
	return &Governor{agents: make(map[simnet.NodeID]*CacheAgent)}
}

// Add registers an agent.
func (g *Governor) Add(a *CacheAgent) { g.agents[a.Node()] = a }

// Agent returns the agent on node, or nil.
func (g *Governor) Agent(node simnet.NodeID) *CacheAgent { return g.agents[node] }

// Reclaim implements faas.MemoryGovernor.
func (g *Governor) Reclaim(node simnet.NodeID, need int64) (time.Duration, error) {
	a := g.Agent(node)
	if a == nil {
		return 0, fmt.Errorf("node %d: no cache agent: %w", node, ErrReclaim)
	}
	return a.Reclaim(need)
}

// Admitted tells node's agent, if it has one, that a missed input is
// being admitted into node's cache; benefit is the predictor's
// caching-benefit score. It is pure bookkeeping: no simulated time
// passes inside it.
func (g *Governor) Admitted(node simnet.NodeID, key string, benefit float64) {
	if a := g.Agent(node); a != nil {
		a.Admitted(key, benefit)
	}
}
