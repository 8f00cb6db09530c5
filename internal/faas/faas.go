// Package faas implements the OpenWhisk-like FaaS platform of the
// paper (§2.1): a Controller with a Loadbalancer that routes
// invocation requests to per-node Invokers, which manage container
// sandboxes with cold starts, keep-alive, per-invocation exclusivity
// and cgroup-style memory resizing.
//
// The platform is deliberately policy-open at the two points OFC
// modifies (Figure 4): an Advisor consulted before placement (memory
// prediction + cache-benefit flag) and a Router that picks the invoker
// (locality-aware routing, §6.5). Without those hooks the platform
// behaves like vanilla OWK: sandboxes sized at the tenant-booked
// memory, home-invoker hashing.
package faas

import (
	"errors"
	"hash/fnv"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/trace"
)

// Blob aliases the shared payload type.
type Blob = kvstore.Blob

// ObjKind aliases the cache's object kind (§6.3); functions write the
// three kinds below.
type ObjKind = kvstore.Kind

const (
	KindInput        = kvstore.KindInput
	KindIntermediate = kvstore.KindIntermediate
	KindFinal        = kvstore.KindFinal
)

// PutOpts carries write intent to the storage layer.
type PutOpts struct {
	Kind        ObjKind
	Pipeline    string // pipeline instance id; empty for single-stage
	ShouldCache bool   // the Predictor's caching-benefit verdict
	// Benefit is the Predictor's caching-benefit score in [0,1] (the
	// probability mass behind ShouldCache; 0 when no model advised).
	// Cost-aware eviction policies weigh it per object.
	Benefit float64
	// Trace links storage-layer spans to the invocation phase that
	// issued the operation (zero when tracing is off).
	Trace trace.Ref
}

// Storage is the data plane functions use for their Extract and Load
// phases. Implementations: direct RSDS (OWK-Swift), centralized IMOC
// (OWK-Redis) and OFC's rclib proxy.
type Storage interface {
	Get(caller simnet.NodeID, key string, opts PutOpts) (Blob, error)
	Put(caller simnet.NodeID, key string, blob Blob, opts PutOpts) error
}

// Function is a registered cloud function.
type Function struct {
	Name   string
	Tenant string
	// MemoryBooked is the tenant-configured sandbox memory.
	MemoryBooked int64
	// InputType describes the media kind ("image", "audio", "video",
	// "text"); the ML module selects feature sets by it.
	InputType string
	// ArgNames lists the function-specific argument names, in the
	// order the ML module will see them. The platform knows names
	// only, never semantics (§5.1.2).
	ArgNames []string
	// Body is the function code.
	Body func(ctx *Ctx) error

	// id is the registry key, built once by Register: Invoke refuses a
	// function without one, and asks for it several times per
	// invocation.
	id string
}

// ID returns the registry key (tenant/name).
func (f *Function) ID() string {
	if f.id != "" {
		return f.id
	}
	return f.Tenant + "/" + f.Name
}

// Request is one invocation request.
type Request struct {
	Function *Function
	// Args are the function-specific arguments (opaque values).
	Args map[string]float64
	// InputKeys are the object identifiers among the arguments
	// (annotated per §5.1.2).
	InputKeys []string
	// InputFeatures carries the feature sidecars of the input objects
	// when available (extracted at object-creation time).
	InputFeatures map[string]float64
	// Pipeline, if non-empty, groups the invocation into a pipeline
	// instance.
	Pipeline string
	// FinalStage marks the last stage of a pipeline (outputs are
	// final, and pipeline intermediates are discarded afterwards).
	FinalStage bool

	// Fields filled in by the controller/advisor:
	predMem     int64
	shouldCache bool
	benefit     float64
	advised     bool
	tref        trace.Ref
}

// PredictedMem returns the advised sandbox memory (0 if not advised).
func (r *Request) PredictedMem() int64 { return r.predMem }

// Advised reports whether the Advisor's memory prediction was applied.
func (r *Request) Advised() bool { return r.advised }

// TraceRef returns the span the request is currently executing under
// (zero when tracing is off), so downstream layers can parent their
// spans to it.
func (r *Request) TraceRef() trace.Ref { return r.tref }

// Advice is the Advisor's verdict for one invocation.
type Advice struct {
	// Mem is the sandbox memory to provision (already conservatively
	// bumped by one interval, per §5.3).
	Mem int64
	// ShouldCache is the caching-benefit prediction (§5.2); Benefit is
	// the model's probability mass behind it, in [0,1].
	ShouldCache bool
	Benefit     float64
	// Use reports whether the advice should be applied; false before
	// the model matures (§5.3).
	Use bool
}

// Advisor is consulted by the controller before placement (OFC's
// Predictor).
type Advisor interface {
	Advise(req *Request) Advice
}

// Router picks the invoker for a request. warmIdle lists invokers with
// an idle warm sandbox for the function; all lists every live invoker.
// Both lists belong to the platform and are reused once Route returns.
type Router interface {
	Route(req *Request, all []*Invoker, warmIdle []*Invoker) *Invoker
}

// CompletionObserver is notified after every invocation (OFC's Monitor
// feeds the ModelTrainer with it).
type CompletionObserver interface {
	OnComplete(req *Request, res *Result)
}

// MemoryGovernor arbitrates node memory between sandboxes and the
// cache (OFC's cacheAgent). Reclaim must free `need` bytes of cache
// grant on node before returning; it reports the virtual time spent
// shrinking (the Figure 8 "scaling" cost).
type MemoryGovernor interface {
	Reclaim(node simnet.NodeID, need int64) (time.Duration, error)
}

// AdmissionController gates invocations at the controller before any
// work is done (the overload layer's bounded queue). Admit blocks the
// calling process until the request may proceed, returning a release
// function the platform calls on completion; a non-nil error rejects
// the invocation without running it.
type AdmissionController interface {
	Admit(req *Request) (release func(), err error)
}

// RetryPolicy arbitrates re-executions — OOM retries and reroutes of
// lost activations — so failures cannot amplify into retry storms
// (the overload layer's shared retry budget).
type RetryPolicy interface {
	AllowRetry(req *Request, cause error) bool
}

// Result is the outcome of an invocation.
type Result struct {
	Start, End sim.Time
	// Phase durations (§2.2.3's E, T, L decomposition).
	Extract, Transform, Load time.Duration
	// QueueDelay covers controller + placement + sandbox acquisition.
	QueueDelay time.Duration
	// PeakMem is the observed peak memory of the invocation.
	PeakMem int64
	// SandboxMem is the sandbox limit the invocation ran under
	// (after any rescue resize).
	SandboxMem int64
	// InitialMem is the sandbox limit initially provisioned.
	InitialMem int64
	ColdStart  bool
	// Retried reports an OOM kill followed by a retry at booked
	// memory (§5.3).
	Retried bool
	// Rescued reports an in-flight memory-cap raise by the Monitor.
	Rescued bool
	// Swapped reports swap-degraded execution (slight memory
	// overshoot absorbed by the kernel instead of an OOM kill).
	Swapped bool
	// ScaleDownTime is cache-shrink time charged on the setup path
	// (Figure 8).
	ScaleDownTime time.Duration
	// BytesIn and BytesOut are the payload volumes of the Extract and
	// Load phases, and ReadOps/WriteOps the operation counts (the
	// Observer estimates uncached E/L from them).
	BytesIn, BytesOut int64
	ReadOps, WriteOps int64
	Node              simnet.NodeID
	Err               error
}

// Duration is the end-to-end invocation latency.
func (r *Result) Duration() time.Duration { return time.Duration(r.End - r.Start) }

// Errors.
var (
	ErrOOM          = errors.New("faas: invocation killed by OOM")
	ErrNoCapacity   = errors.New("faas: no invoker has capacity")
	ErrUnregistered = errors.New("faas: function not registered")
	ErrInvokerDown  = errors.New("faas: invoker node went down")
	// ErrRetryBudget marks an invocation whose re-execution the
	// RetryPolicy denied; it wraps the underlying cause (ErrOOM or
	// ErrInvokerDown), so errors.Is matches both.
	ErrRetryBudget = errors.New("faas: retry denied by retry budget")
)

// The platform's timing constants, calibrated to the paper's
// measurements (§6.4, §7.2.1).
const (
	// invokerOverhead + Config.ControllerOverhead ≈ the 8 ms end-to-end
	// cost of an empty function through the distributed OWK.
	invokerOverhead = 3 * time.Millisecond
	// coldStart is the sandbox creation cost.
	coldStart = 500 * time.Millisecond
	// ResizeLatency is the cgroup+docker update cost (≈24 ms, of
	// which the kernel syscall is ≈0.8 ms).
	ResizeLatency = 24 * time.Millisecond
	// minSandboxMem is OWK's smallest configurable memory (64 MB).
	minSandboxMem int64 = 64 << 20
	// maxSandboxMem is OWK's permitted ceiling (2 GB).
	maxSandboxMem int64 = 2 << 30
	// monitorPoll is the Monitor's cgroup sampling period; rescue
	// applies only to invocations at least monitorMinRuntime long.
	monitorPoll       = time.Second
	monitorMinRuntime = 3 * time.Second
	// AdviceOverhead is the Predictor+Sizer cost on the critical path
	// (≈6 ms, §7.2.1), charged only when an Advisor is configured.
	AdviceOverhead = 6 * time.Millisecond
	// swapTolerance is the fractional memory overshoot the kernel
	// absorbs by swapping instead of OOM-killing; swapSlowdown scales
	// the transform-time penalty per unit of overshoot (§5.3's
	// "swapping activity, resulting in degraded performance").
	swapTolerance = 0.08
	swapSlowdown  = 8.0
)

// Config carries the platform timings a run varies.
type Config struct {
	// ControllerOverhead + invokerOverhead ≈ the 8 ms end-to-end cost
	// of an empty function through the distributed OWK.
	ControllerOverhead time.Duration
	// KeepAlive is the idle sandbox lifetime (600 s in OWK).
	KeepAlive time.Duration
}

// DefaultConfig returns the paper-calibrated timings.
func DefaultConfig() Config {
	return Config{
		ControllerOverhead: 5 * time.Millisecond,
		KeepAlive:          600 * time.Second,
	}
}

// Platform is the whole FaaS deployment.
type Platform struct {
	env  *sim.Env
	net  *simnet.Network
	cfg  Config
	ctrl simnet.NodeID

	invokers    []*Invoker
	activations *activationLog

	// live and warmIdle are route's two invoker lists, dead once it
	// has chosen a target; route never parks, so one pair serves every
	// call.
	live, warmIdle []*Invoker

	// Policy hooks (nil = vanilla OWK behavior).
	Advisor  Advisor
	Router   Router
	Observer CompletionObserver
	Governor MemoryGovernor
	// Admission gates invocations before any work; Retry arbitrates
	// re-executions (overload control hooks; nil = unbounded).
	Admission AdmissionController
	Retry     RetryPolicy
	// Tracer records per-invocation spans (nil = tracing off; every
	// call through a nil tracer fast-paths out without allocating).
	// Like the other hooks, set it before traffic starts.
	Tracer *trace.Tracer
	// MonitorEnabled turns on the §5.3 in-flight memory rescue.
	MonitorEnabled bool

	stats Stats
}

// Stats aggregates platform counters.
type Stats struct {
	Invocations int64
	ColdStarts  int64
	WarmStarts  int64
	OOMKills    int64
	Retries     int64
	Rescues     int64
	Swaps       int64
	Failures    int64
	// Reroutes counts invocations replayed on another worker after
	// their invoker died mid-run (the controller resubmits, as OWK
	// does for lost activations).
	Reroutes int64
	// Shed counts invocations rejected by the AdmissionController
	// before running; RetryDenied counts re-executions refused by the
	// RetryPolicy (the invocation then fails with ErrRetryBudget).
	Shed        int64
	RetryDenied int64
}

// New creates a platform whose controller runs on ctrlNode.
func New(net *simnet.Network, ctrlNode simnet.NodeID, cfg Config) *Platform {
	return &Platform{
		env:         net.Env(),
		net:         net,
		cfg:         cfg,
		ctrl:        ctrlNode,
		activations: newActivationLog(0),
	}
}

// Config returns the platform constants.
func (p *Platform) Config() Config { return p.cfg }

// Stats returns a copy of the platform counters.
func (p *Platform) Stats() Stats { return p.stats }

// Register readies a function for Invoke: it stamps the registry key
// and defaults the booked memory to the platform ceiling.
func (p *Platform) Register(f *Function) {
	if f.MemoryBooked <= 0 {
		f.MemoryBooked = maxSandboxMem
	}
	f.id = f.Tenant + "/" + f.Name
}

// AddInvoker starts a worker on node with the given memory capacity
// and storage binding for function bodies.
func (p *Platform) AddInvoker(node simnet.NodeID, capacity int64, storage Storage) *Invoker {
	inv := newInvoker(p, node, capacity, storage)
	p.invokers = append(p.invokers, inv)
	return inv
}

// Invokers returns the worker list.
func (p *Platform) Invokers() []*Invoker {
	out := make([]*Invoker, len(p.invokers))
	copy(out, p.invokers)
	return out
}

// InvokerOn returns the worker running on node, or nil.
func (p *Platform) InvokerOn(node simnet.NodeID) *Invoker {
	for _, inv := range p.invokers {
		if inv.node.ID == node {
			return inv
		}
	}
	return nil
}

// homeIndex is OWK's hash-based home invoker for a function.
func (p *Platform) homeIndex(f *Function, n int) int {
	h := fnv.New32a()
	h.Write([]byte(f.ID()))
	return int(h.Sum32()) % n
}
