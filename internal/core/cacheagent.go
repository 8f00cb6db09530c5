package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ofc/internal/faas"
	"ofc/internal/memctl"
	"ofc/internal/metrics"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/trace"
)

// CacheAgentConfig tunes the per-node agent (§6.3, §6.4).
type CacheAgentConfig struct {
	// InitialSlack is the provisioned slack pool (paper: 100 MB).
	InitialSlack int64
	// SlackAdjustEvery and ChurnSampleEvery drive the sliding-window
	// slack estimation (paper: 120 s and 60 s).
	SlackAdjustEvery time.Duration
	ChurnSampleEvery time.Duration
	// ChurnWindow is the number of samples in the sliding window.
	ChurnWindow int
	MinSlack    int64
	MaxSlack    int64
	// EvictionEvery is the periodic eviction cadence (paper: 300 s).
	EvictionEvery time.Duration
	// MinAccess and MaxIdle are the §6.3 eviction criteria
	// (n_access < 5 or idle > 30 min).
	MinAccess int64
	MaxIdle   time.Duration
	// GrowEvery is the background growth cadence (growth also runs
	// after every completed invocation on the node).
	GrowEvery time.Duration
	// PoolReconfigTime is the asynchronous RAMCloud memory-pool
	// reconfiguration cost per scaling operation (off the critical
	// path; Table 2 sums it).
	PoolReconfigTime time.Duration
	// ShrinkBaseNoEvict and ShrinkBaseEvict are the critical-path
	// costs of a cache shrink without data movement (Figure 8 Sc1:
	// ≈289 µs) and of an eviction-based shrink (Sc3: ≈373 µs).
	ShrinkBaseNoEvict time.Duration
	ShrinkBaseEvict   time.Duration
	// Policy selects the memctl policy combination; zero-value fields
	// mean the paper's defaults (threshold/window/migratefirst).
	Policy memctl.Spec
}

// DefaultCacheAgentConfig returns the paper's parameters.
func DefaultCacheAgentConfig() CacheAgentConfig {
	return CacheAgentConfig{
		InitialSlack:      100 << 20,
		SlackAdjustEvery:  120 * time.Second,
		ChurnSampleEvery:  60 * time.Second,
		ChurnWindow:       5,
		MinSlack:          64 << 20,
		MaxSlack:          1 << 30,
		EvictionEvery:     300 * time.Second,
		MinAccess:         5,
		MaxIdle:           30 * time.Minute,
		GrowEvery:         5 * time.Second,
		PoolReconfigTime:  300 * time.Millisecond,
		ShrinkBaseNoEvict: 289 * time.Microsecond,
		ShrinkBaseEvict:   373 * time.Microsecond,
	}
}

// memctlParams maps the agent config onto the policy knobs. The age
// floor is one eviction period, exactly the pre-refactor grace window.
func (c CacheAgentConfig) memctlParams() memctl.Params {
	return memctl.Params{
		MinAccess:   c.MinAccess,
		MaxIdle:     c.MaxIdle,
		AgeFloor:    c.EvictionEvery,
		MinSlack:    c.MinSlack,
		MaxSlack:    c.MaxSlack,
		ChurnWindow: c.ChurnWindow,
		StaticSlack: c.InitialSlack,
		HighWater:   memctl.DefaultParams().HighWater,
	}
}

// AgentMetrics are the per-agent counters behind Table 2.
type AgentMetrics struct {
	ScaleUps            int64
	ScaleUpTime         time.Duration
	ScaleDownNoEviction int64
	ScaleDownMigration  int64
	ScaleDownEviction   int64
	ScaleDownTime       time.Duration
	PeriodicEvictions   int64
	ReclaimFailures     int64
}

// AgentSnapshot is one consistent observation of the agent: the slack
// pool and the counters captured under a single critical section, so a
// reader can never see a slack value from one instant paired with
// counters from another.
type AgentSnapshot struct {
	Slack   int64
	Metrics AgentMetrics
	Policy  metrics.PolicyCounters
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
	// off). System.EnableTracing sets it before Start; read without
	// synchronization.
	tracer *trace.Tracer

	// mu guards the mutable snapshot state AND the policy set: policy
	// implementations are plain bookkeeping with no internal locking,
	// so every Touch/Admit/Victims/Plan/Observe/Target call happens
	// under mu. Decisions are computed under the lock, executed (RPCs,
	// evictions, sleeps) outside it.
	mu           sync.Mutex
	slack        int64
	lastReserved int64
	pressure     memctl.Pressure
	metrics      AgentMetrics
	polCounters  metrics.PolicyCounters
}

// NewCacheAgent builds the agent for one node over the engine's
// memory-control view, instantiating its own policy set from the
// config's spec (policy state — GDSF priorities, slack windows — is
// per node).
func NewCacheAgent(env *sim.Env, inv *faas.Invoker, kv store.MemoryView, rc *RCLib, cfg CacheAgentConfig) *CacheAgent {
	return &CacheAgent{
		env: env, node: inv.Node(), inv: inv, kv: kv, rc: rc, cfg: cfg,
		pol:   memctl.MustBuild(cfg.Policy, cfg.memctlParams()),
		slack: cfg.InitialSlack, lastReserved: inv.Reserved(),
		polCounters: metrics.PolicyCounters{Policy: normalizeSpec(cfg.Policy).String()},
	}
}

// normalizeSpec fills empty spec fields with the default names so the
// policy label always reads "eviction/slack/planner".
func normalizeSpec(s memctl.Spec) memctl.Spec {
	d := memctl.DefaultSpec()
	if s.Eviction == "" {
		s.Eviction = d.Eviction
	}
	if s.Slack == "" {
		s.Slack = d.Slack
	}
	if s.Planner == "" {
		s.Planner = d.Planner
	}
	return s
}

// Node returns the agent's node.
func (a *CacheAgent) Node() simnet.NodeID { return a.node }

// Snapshot returns one consistent view of slack + counters (see
// AgentSnapshot). Slack and Metrics are conveniences over it.
func (a *CacheAgent) Snapshot() AgentSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AgentSnapshot{Slack: a.slack, Metrics: a.metrics, Policy: a.polCounters}
}

// Slack returns the current slack pool size.
func (a *CacheAgent) Slack() int64 { return a.Snapshot().Slack }

// Metrics returns a snapshot of the agent counters.
func (a *CacheAgent) Metrics() AgentMetrics { return a.Snapshot().Metrics }

// PolicyCounters returns the per-policy counters.
func (a *CacheAgent) PolicyCounters() metrics.PolicyCounters { return a.Snapshot().Policy }

// PolicySpec returns the normalized policy combination the agent runs.
func (a *CacheAgent) PolicySpec() memctl.Spec { return normalizeSpec(a.cfg.Policy) }

// Start arms the periodic loops: growth, slack maintenance, periodic
// eviction. It also performs the initial grant.
func (a *CacheAgent) Start() {
	a.Grow()
	a.env.Every(a.cfg.GrowEvery, func() bool {
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

// AdmitObject is the proxy's write-admission gate: before a missed
// input is admitted into this node's cache, the eviction policy gets a
// veto (with the predictor's caching-benefit score as evidence).
func (a *CacheAgent) AdmitObject(key string, size int64, benefit float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ok := a.pol.Eviction.Admit(key, size, benefit)
	if ok {
		a.polCounters.Admitted++
	} else {
		a.polCounters.Rejected++
	}
	return ok
}

// TouchObject reports a cache hit on an object mastered on this node,
// so frequency/recency-keeping policies see accesses as they happen.
func (a *CacheAgent) TouchObject(key string) {
	now := a.env.Now()
	a.mu.Lock()
	a.pol.Eviction.Touch(key, now)
	a.polCounters.Touches++
	a.mu.Unlock()
}

// Grow rebalances the cache grant to the node's current entitlement:
// the memory booked-but-unused by live sandboxes (§1, §6.4), bounded
// by the physically free memory minus the slack pool. Sandbox churn
// moves the entitlement in both directions, so this both grows and
// shrinks the cache — the scale-up/scale-down events of Table 2.
// Called at every placement, after every completion and periodically.
func (a *CacheAgent) Grow() {
	a.mu.Lock()
	slack := a.slack
	a.mu.Unlock()
	target := a.inv.BookedWaste()
	if free := a.inv.Capacity() - a.inv.Reserved() - slack; target > free {
		target = free
	}
	if target < 0 {
		target = 0
	}
	cur := a.inv.CacheGrant()
	const hysteresis = 1 << 20
	switch {
	case target > cur+hysteresis:
		granted := a.inv.SetCacheGrant(target)
		a.kv.SetMemoryLimit(a.node, granted)
		a.mu.Lock()
		a.metrics.ScaleUps++
		a.metrics.ScaleUpTime += a.cfg.PoolReconfigTime
		a.mu.Unlock()
	case target < cur-hysteresis:
		// Shrink the grant; free cached data first if usage exceeds
		// the new target.
		used, _ := a.kv.Usage(a.node)
		migrated, evicted := 0, 0
		if used > target {
			migrated, evicted = a.freeBytes(used - target)
		}
		granted := a.inv.SetCacheGrant(target)
		a.kv.SetMemoryLimit(a.node, granted)
		a.mu.Lock()
		switch {
		case migrated > 0:
			a.metrics.ScaleDownMigration++
		case evicted > 0:
			a.metrics.ScaleDownEviction++
		default:
			a.metrics.ScaleDownNoEviction++
		}
		a.metrics.ScaleDownTime += a.cfg.PoolReconfigTime
		a.mu.Unlock()
	default:
		return
	}
	// RAMCloud pool reconfiguration happens off the critical path.
	a.env.Go(func() { a.env.Sleep(a.cfg.PoolReconfigTime) })
}

// view captures the policy inputs for this node: census, occupancy,
// need and pressure. Must be called without holding mu.
func (a *CacheAgent) view(need int64) memctl.View {
	used, limit := a.kv.Usage(a.node)
	a.mu.Lock()
	pressure := a.pressure
	a.mu.Unlock()
	return memctl.View{
		Now:      a.env.Now(),
		Objects:  a.kv.Objects(a.node),
		Used:     used,
		Limit:    limit,
		Need:     need,
		Pressure: pressure,
	}
}

// freeBytes frees at least toFree bytes of cached data by executing
// the planner's recipe: walk the first phase until the need is met,
// then (if short) trigger the asynchronous write-backs and walk the
// second phase, honoring each step's migrate-vs-evict intent with
// eviction as the migration fallback.
func (a *CacheAgent) freeBytes(toFree int64) (migrated, evicted int) {
	v := a.view(toFree)
	a.mu.Lock()
	plan := a.pol.Planner.Plan(v)
	a.mu.Unlock()

	var freed []string
	wrotebacks := 0
	defer func() {
		a.mu.Lock()
		for _, k := range freed {
			a.pol.Eviction.Forget(k)
		}
		a.polCounters.Evictions += int64(evicted)
		a.polCounters.Migrations += int64(migrated)
		a.polCounters.WriteBacks += int64(wrotebacks)
		a.mu.Unlock()
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
		if s.Migrate && a.kv.MigrateToBackup(s.Key) == nil {
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
	a.mu.Lock()
	delta := cur - a.lastReserved
	if delta < 0 {
		delta = -delta
	}
	a.lastReserved = cur
	a.pol.Slack.Observe(delta)
	a.mu.Unlock()
}

// adjustSlack sets the slack pool from the estimator (§6.4); an
// estimator with no opinion yet leaves the provisioned slack as is.
func (a *CacheAgent) adjustSlack() {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	was := a.pressure
	a.pressure = p
	a.mu.Unlock()
	if p == memctl.PressureBrownout && was != p {
		a.env.Go(func() { a.periodicEviction() })
	}
}

// Reclaim implements the §6.4 fast-reclamation path, invoked by the
// platform (as MemoryGovernor) when a sandbox needs memory the cache
// holds. The planner orders the work (free grant first, then persisted
// outputs, then LRU inputs via migration-by-promotion, then eviction);
// the agent executes it and charges the critical-path time. Dirty
// outputs get their write-back triggered asynchronously. Returns the
// critical-path time spent.
func (a *CacheAgent) Reclaim(need int64) (time.Duration, error) {
	if a.tracer == nil {
		return a.reclaim(need, nil)
	}
	sp := a.tracer.Begin(0, 0, "reclaim", a.node)
	sp.SetNum("need", need)
	took, err := a.reclaim(need, &sp)
	if err != nil {
		sp.SetNum("err", 1)
	}
	a.tracer.End(&sp)
	return took, err
}

// reclaim is Reclaim's body (the wrapper owns the span).
func (a *CacheAgent) reclaim(need int64, sp *trace.Span) (time.Duration, error) {
	start := a.env.Now()
	grant := a.inv.CacheGrant()
	if grant < need {
		a.mu.Lock()
		a.metrics.ReclaimFailures++
		a.mu.Unlock()
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
			a.mu.Lock()
			a.metrics.ReclaimFailures++
			a.mu.Unlock()
			return time.Duration(a.env.Now() - start),
				fmt.Errorf("node %d: freed only %d of %d needed: %w", a.node, grant-used2, need, ErrReclaim)
		}
	}

	// Charge the scaling base cost for the scenario (Figure 8).
	switch {
	case migrated > 0:
		// Promotion time was already charged by MigrateToBackup.
	case evicted > 0:
		a.env.Sleep(a.cfg.ShrinkBaseEvict)
	default:
		a.env.Sleep(a.cfg.ShrinkBaseNoEvict)
	}

	if migrated > 0 {
		sp.SetNum("migrated", int64(migrated))
	}
	if evicted > 0 {
		sp.SetNum("evicted", int64(evicted))
	}

	newGrant := a.inv.SetCacheGrant(grant - need)
	a.kv.SetMemoryLimit(a.node, newGrant)

	took := time.Duration(a.env.Now() - start)
	a.mu.Lock()
	switch {
	case migrated > 0:
		a.metrics.ScaleDownMigration++
	case evicted > 0:
		a.metrics.ScaleDownEviction++
	default:
		a.metrics.ScaleDownNoEviction++
	}
	a.metrics.ScaleDownTime += a.cfg.PoolReconfigTime
	a.mu.Unlock()
	// Asynchronous pool reconfiguration, as for growth.
	a.env.Go(func() { a.env.Sleep(a.cfg.PoolReconfigTime) })
	return took, nil
}

// periodicEviction runs the discretionary sweep: the eviction policy
// selects the victims (Need == 0; the paper's threshold policy applies
// §6.3's n_access/idle criteria, demand-driven policies trim to their
// watermark), the agent executes — dirty victims are written back
// before eviction, clean ones evicted directly.
func (a *CacheAgent) periodicEviction() {
	if a.tracer == nil {
		a.evictionSweep()
		return
	}
	sp := a.tracer.Begin(0, 0, "evict.sweep", a.node)
	victims := a.evictionSweep()
	if victims > 0 {
		sp.SetNum("victims", int64(victims))
	}
	a.tracer.End(&sp)
}

// evictionSweep is periodicEviction's body (the wrapper owns the
// span); it returns the number of victims the policy selected.
func (a *CacheAgent) evictionSweep() int {
	v := a.view(0)
	a.mu.Lock()
	victims := a.pol.Eviction.Victims(v)
	a.mu.Unlock()
	for _, o := range victims {
		key := o.Key
		if o.Meta.Tags["dirty"] == "1" {
			a.env.Go(func() {
				if a.rc.WriteBackNow(a.node, key) {
					a.kv.Evict(key)
				}
			})
			a.mu.Lock()
			a.polCounters.WriteBacks++
			a.mu.Unlock()
			continue
		}
		if a.kv.Evict(key) == nil {
			a.mu.Lock()
			a.metrics.PeriodicEvictions++
			a.polCounters.Evictions++
			a.pol.Eviction.Forget(key)
			a.mu.Unlock()
		}
	}
	return len(victims)
}

// Governor adapts a set of agents to the faas.MemoryGovernor interface
// and is the proxy's write-admission gate (routing per-object admission
// and touch notifications to the owning node's agent).
type Governor struct {
	mu     sync.Mutex
	agents map[simnet.NodeID]*CacheAgent
}

// NewGovernor returns an empty governor; add agents with Add.
func NewGovernor() *Governor {
	return &Governor{agents: make(map[simnet.NodeID]*CacheAgent)}
}

// Add registers an agent.
func (g *Governor) Add(a *CacheAgent) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.agents[a.Node()] = a
}

// Agent returns the agent on node, or nil.
func (g *Governor) Agent(node simnet.NodeID) *CacheAgent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.agents[node]
}

// Reclaim implements faas.MemoryGovernor.
func (g *Governor) Reclaim(node simnet.NodeID, need int64) (time.Duration, error) {
	a := g.Agent(node)
	if a == nil {
		return 0, fmt.Errorf("node %d: no cache agent: %w", node, ErrReclaim)
	}
	return a.Reclaim(need)
}

// AdmitObject decides whether a missed input may be admitted into
// node's cache; benefit is the predictor's caching-benefit score. The
// decision belongs to the node that would master the object. Nodes
// without an agent admit unconditionally. Like TouchObject it is pure
// bookkeeping: no simulated time passes inside it.
func (g *Governor) AdmitObject(node simnet.NodeID, key string, size int64, benefit float64) bool {
	a := g.Agent(node)
	if a == nil {
		return true
	}
	return a.AdmitObject(key, size, benefit)
}

// TouchObject reports a cache hit on an object mastered on node.
func (g *Governor) TouchObject(node simnet.NodeID, key string) {
	if a := g.Agent(node); a != nil {
		a.TouchObject(key)
	}
}
