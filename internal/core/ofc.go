package core

import (
	"sync"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/metrics"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/trace"
)

// Options configures a full OFC deployment.
type Options struct {
	// Workers is the number of FaaS worker nodes (the paper's testbed
	// uses 4 workers + 1 controller machine + 1 storage machine).
	Workers int
	// NodeCapacity is each worker's memory usable by sandboxes and
	// cache.
	NodeCapacity int64
	Seed         int64
	Net          simnet.Config
	FaaS         faas.Config
	KV           kvstore.Config
	RSDS         objstore.Profile
	Predictor    PredictorConfig
	Agent        CacheAgentConfig
	// DisableCacheAgents leaves cache grants at zero (for tests that
	// drive grants manually).
	DisableCacheAgents bool
	// CacheOff replaces the cache cluster with the direct-RSDS
	// passthrough engine: the vanilla-platform baseline expressed as a
	// storage backend rather than scattered if-branches. No cache
	// servers, no agents, no locality routing.
	CacheOff bool
	// CoalesceMisses turns on the proxy's singleflight miss path (see
	// RCLib.getCoalesced). Off by default: the faithful-paper
	// configuration lets every miss pay its own RSDS round trip.
	CoalesceMisses bool
}

// DefaultOptions mirrors the paper's testbed shape.
func DefaultOptions() Options {
	return Options{
		Workers:      4,
		NodeCapacity: 8 << 30,
		Seed:         1,
		Net:          simnet.DefaultConfig(),
		FaaS:         faas.DefaultConfig(),
		KV:           kvstore.DefaultConfig(),
		RSDS:         objstore.SwiftProfile(),
		Predictor:    DefaultPredictorConfig(),
		Agent:        DefaultCacheAgentConfig(),
	}
}

// System is a deployed OFC stack: platform + cache + RSDS + ML,
// mirroring Figure 4.
type System struct {
	Env      *sim.Env
	Net      *simnet.Network
	Platform *faas.Platform
	// Backend is the storage engine the proxy runs on (the cluster, or
	// the passthrough in CacheOff mode). KV is the concrete cluster for
	// tests that poke engine internals; nil when CacheOff.
	Backend store.Backend
	KV      *kvstore.Cluster
	RSDS    *objstore.Store
	Pred    *Predictor
	Trainer *ModelTrainer
	RC      *RCLib
	Gov     *Governor
	// Overload is the overload-control subsystem; nil until
	// EnableOverload is called.
	Overload *OverloadControl
	// Tracer is the deterministic span recorder; nil until
	// EnableTracing is called.
	Tracer *trace.Tracer

	CtrlNode    simnet.NodeID
	StorageNode simnet.NodeID
	WorkerNodes []simnet.NodeID

	seed   int64
	agents []*CacheAgent

	statsMu  sync.Mutex
	goodPred int64
	badPred  int64
	started  bool
}

// NewSystem assembles the stack: controller node (OWK Controller + RC
// coordinator + ModelTrainer), a storage node (Swift) and worker nodes
// (Invoker + RAMCloud server + cacheAgent + Proxy).
func NewSystem(opts Options) *System {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	env := sim.NewEnv(opts.Seed)
	net := simnet.New(env, opts.Net)
	ctrl := net.AddNode("controller").ID
	storage := net.AddNode("storage").ID
	workers := make([]simnet.NodeID, opts.Workers)
	for i := range workers {
		workers[i] = net.AddNode("worker").ID
	}

	rsds := objstore.New(net, storage, opts.RSDS)
	platform := faas.New(net, ctrl, opts.FaaS)

	var backend store.Backend
	var kv *kvstore.Cluster
	if opts.CacheOff {
		backend = store.NewPassthrough(rsds)
	} else {
		kv = kvstore.New(net, ctrl, opts.KV)
		backend = kv
	}

	sys := &System{
		Env: env, Net: net, Platform: platform, Backend: backend, KV: kv, RSDS: rsds,
		CtrlNode: ctrl, StorageNode: storage, WorkerNodes: workers,
		seed: opts.Seed,
	}
	sys.Pred = NewPredictor(opts.Predictor)
	sys.Trainer = NewModelTrainer(sys.Pred, env)
	sys.RC = NewRCLib(env, backend, rsds)
	sys.RC.coalesce = opts.CoalesceMisses
	sys.Gov = NewGovernor()

	mv, hasMem := store.MemoryViewOf(backend)
	for _, w := range workers {
		if kv != nil {
			kv.AddServer(w, 0) // limit follows the cache grant
		}
		inv := platform.AddInvoker(w, opts.NodeCapacity, sys.RC)
		if !opts.DisableCacheAgents && hasMem {
			agent := NewCacheAgent(env, inv, mv, sys.RC, opts.Agent)
			sys.Gov.Add(agent)
			sys.agents = append(sys.agents, agent)
		}
	}

	platform.Advisor = sys.Pred
	pv, _ := store.PlacementViewOf(backend)
	platform.Router = NewRouter(pv)
	platform.Observer = sys
	platform.Governor = sys.Gov
	platform.MonitorEnabled = true

	sys.RC.AttachPlatform(platform)
	// The governor doubles as the proxy's write-admission gate,
	// routing per-object Admit/Touch to the owning node's policies.
	sys.RC.SetAdmissionGate(sys.Gov)
	return sys
}

// EnableTracing attaches one deterministic span recorder to every
// traced subsystem: platform invoke path, predictor, proxy (RCLib), KV
// coordinator RPCs and the cache agents. Call before Start and before
// any traffic; cfg.Seed defaults to the system's simulation seed so
// trace IDs reproduce at a fixed seed. Returns the tracer for export.
func (s *System) EnableTracing(cfg trace.Config) *trace.Tracer {
	if cfg.Seed == 0 {
		cfg.Seed = s.seed
	}
	tr := trace.New(s.Env, cfg)
	s.Platform.Tracer = tr
	s.Pred.SetTracer(tr)
	s.RC.SetTracer(tr)
	if s.KV != nil {
		s.KV.SetTracer(tr)
	}
	for _, a := range s.agents {
		a.SetTracer(tr)
	}
	s.Tracer = tr
	return tr
}

// Start arms the background loops (cache agents, model trainer). It is
// idempotent.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, a := range s.agents {
		a.Start()
	}
	s.Trainer.Start()
	if s.Overload != nil {
		s.Overload.Controller.Start()
	}
}

// Run starts the system, executes body as a simulation process, lets
// asynchronous work settle, then stops the periodic loops and drives
// the simulation to completion. It returns the virtual time at which
// body finished.
func (s *System) Run(body func()) sim.Time {
	s.Start()
	var bodyEnd sim.Time
	s.Env.Go(func() {
		body()
		bodyEnd = s.Env.Now()
		s.Env.Sleep(5 * time.Second) // drain persistors and write-backs
		s.Env.Stop()
	})
	s.Env.Run()
	return bodyEnd
}

// Agents returns the per-node cache agents.
func (s *System) Agents() []*CacheAgent { return s.agents }

// Register adds a function to the platform and initializes its model
// state.
func (s *System) Register(fn *faas.Function) {
	s.Platform.Register(fn)
	s.Pred.state(fn)
}

// OnPlaced implements faas.PlacementObserver: the moment a sandbox is
// provisioned, its booked-but-unused memory becomes the cache's (§4).
func (s *System) OnPlaced(node simnet.NodeID) {
	if a := s.Gov.Agent(node); a != nil {
		a.Grow()
	}
}

// OnComplete implements faas.CompletionObserver: it grows the local
// cache with the invocation's leftover memory (§4), updates the
// prediction quality counters (Table 2) and feeds the ModelTrainer.
func (s *System) OnComplete(req *faas.Request, res *faas.Result) {
	if req.Function.Tenant == "ofc" {
		return // helper functions are not learned
	}
	if a := s.Gov.Agent(res.Node); a != nil {
		a.Grow()
	}
	if req.Advised() {
		s.statsMu.Lock()
		if res.PeakMem > res.InitialMem {
			s.badPred++
		} else {
			s.goodPred++
		}
		s.statsMu.Unlock()
	}
	if res.Err != nil {
		return
	}
	schema := s.Pred.Schema(req.Function)
	sample := Sample{
		Vals:      schema.Vector(req),
		PeakMem:   res.PeakMem,
		Transform: res.Transform,
		// Benefit ground truth uses the *uncached* E/L costs, modeled
		// from the RSDS profile and the observed payload sizes — the
		// measured phases shrink once caching kicks in and would
		// mislabel.
		Extract:      s.RC.EstimateRSDS(res.ReadOps, res.BytesIn, false),
		Load:         s.RC.EstimateRSDS(res.WriteOps, res.BytesOut, true),
		BenefitKnown: res.BytesIn+res.BytesOut > 0,
	}
	s.Trainer.Observe(req.Function, req, sample)
}

// PredictionCounts reports (good, bad) advised predictions, Table 2
// style: bad means the invocation's peak exceeded the provisioned
// sandbox memory.
func (s *System) PredictionCounts() (good, bad int64) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.goodPred, s.badPred
}

// CacheBytes returns the cache's total master-copy footprint (zero in
// cache-off mode).
func (s *System) CacheBytes() int64 {
	if s.KV == nil {
		return 0
	}
	return s.KV.TotalUsed()
}

// CacheGrantBytes returns the memory currently hoarded for the cache
// across all workers — the quantity Figure 10 plots.
func (s *System) CacheGrantBytes() int64 {
	var total int64
	for _, inv := range s.Platform.Invokers() {
		total += inv.CacheGrant()
	}
	return total
}

// AggregatePolicyCounters sums the per-node control-plane counters
// (all agents in one system run the same policy combination).
func (s *System) AggregatePolicyCounters() metrics.PolicyCounters {
	var out metrics.PolicyCounters
	for _, a := range s.agents {
		out.Add(a.PolicyCounters())
	}
	return out
}

// AggregateAgentMetrics sums the per-node agent counters (Table 2).
func (s *System) AggregateAgentMetrics() AgentMetrics {
	var m AgentMetrics
	for _, a := range s.agents {
		am := a.Metrics()
		m.ScaleUps += am.ScaleUps
		m.ScaleUpTime += am.ScaleUpTime
		m.ScaleDownNoEviction += am.ScaleDownNoEviction
		m.ScaleDownMigration += am.ScaleDownMigration
		m.ScaleDownEviction += am.ScaleDownEviction
		m.ScaleDownTime += am.ScaleDownTime
		m.PeriodicEvictions += am.PeriodicEvictions
		m.ReclaimFailures += am.ReclaimFailures
	}
	return m
}
