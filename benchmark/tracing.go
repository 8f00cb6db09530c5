package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ofc/internal/faas"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/workload"
)

// span is one benchmark-recorded interval on the virtual clock. Spans
// of one arrival share its trace number; parent 0 marks a root.
type span struct {
	trace  int
	id     int64
	parent int64
	name   string
	node   int
	start  sim.Time
	end    sim.Time
	// hostNs is the host-clock cost of a non-yielding hook call (0 for
	// blocking spans, whose host time would include other processes).
	hostNs int64
}

// keepArrivals bounds the Chrome trace: spans are kept for this many
// arrivals after warm-up (a viewer cannot open a whole run), while the
// self-time sums cover every measured invocation.
const keepArrivals = 2000

// recorder is the benchmark's own tracer: spans around the calls the
// benchmark makes into each layer, recorded from the benchmark's files
// and kept in memory until the run ends. A nil recorder is the untraced
// run: every method falls straight through to the wrapped call.
type recorder struct {
	env *sim.Env
	// first is the index of the first arrival after warm-up; on turns
	// true at the warm-up boundary (hooks carry no arrival index).
	first int
	on    atomic.Bool

	mu    sync.Mutex
	next  int64
	roots map[[2]int]int64        // (arrival, inv) -> open root span
	byReq map[*faas.Request]int64 // request -> open root span, for hooks
	spans []span

	// Sums over measured invocations (virtual clock).
	inv       int64
	invokeDur time.Duration
	scaledown time.Duration
	// phase sums Extract/Transform/Load over every measured
	// invocation; own is the part measured by live spans in
	// benchmark-owned bodies and res what faas.Result reports for
	// those same invocations (the two must agree).
	phase, own, res [3]time.Duration
	// Host-clock self time of the non-yielding hooks.
	adviseNs, routeNs, observeNs int64
}

func newRecorder(env *sim.Env, first int) *recorder {
	return &recorder{env: env, first: first, roots: map[[2]int]int64{}, byReq: map[*faas.Request]int64{}}
}

func (r *recorder) kept(seq int) bool { return seq >= r.first && seq < r.first+keepArrivals }

// open starts a span and returns it; the caller closes it with done.
func (r *recorder) open(trace int, parent int64, name string, node int) span {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return span{trace: trace, id: id, parent: parent, name: name, node: node, start: r.env.Now()}
}

func (r *recorder) done(sp *span, keep bool) {
	sp.end = r.env.Now()
	if keep {
		r.mu.Lock()
		r.spans = append(r.spans, *sp)
		r.mu.Unlock()
	}
}

// invoke wraps Platform.Invoke in the root span of one invocation.
func (r *recorder) invoke(p *faas.Platform, req *faas.Request, seq, inv int) *faas.Result {
	if r == nil {
		return p.Invoke(req)
	}
	sp := r.open(seq+1, 0, "invoke", 0)
	key := [2]int{seq, inv}
	r.mu.Lock()
	r.roots[key] = sp.id
	r.byReq[req] = sp.id
	r.mu.Unlock()
	res := p.Invoke(req)
	sp.node = int(res.Node)
	r.done(&sp, r.kept(seq))
	r.mu.Lock()
	delete(r.roots, key)
	delete(r.byReq, req)
	if seq >= r.first {
		r.inv++
		r.invokeDur += sp.end - sp.start
		// A tagged request ran a benchmark-owned body, whose phase spans
		// were recorded live; any other body is the workload package's,
		// and its phase split is the one faas.Result reports.
		sums := &r.phase
		if _, owned := req.Args["arrival"]; owned {
			sums = &r.res
		}
		sums[phExtract] += res.Extract
		sums[phTransform] += res.Transform
		sums[phLoad] += res.Load
	}
	r.mu.Unlock()
	return res
}

// pipeline wraps a workload-package pipeline run. Its stage requests
// are built and invoked inside that package, so the benchmark records
// the request as the root and one child per returned stage result, with
// the phase split the platform reports in faas.Result.
func (r *recorder) pipeline(run func() *workload.PipelineResult, seq int) *workload.PipelineResult {
	if r == nil {
		return run()
	}
	root := r.open(seq+1, 0, "pipeline", 0)
	pr := run()
	keep := r.kept(seq)
	r.done(&root, keep)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range pr.Results {
		if keep {
			r.next++
			r.spans = append(r.spans, span{trace: seq + 1, id: r.next, parent: root.id, name: "invoke",
				node: int(res.Node), start: res.Start, end: res.End})
		}
		if seq >= r.first {
			r.inv++
			r.invokeDur += res.End - res.Start
			r.phase[phExtract] += res.Extract
			r.phase[phTransform] += res.Transform
			r.phase[phLoad] += res.Load
		}
	}
	return pr
}

const (
	phExtract = iota
	phTransform
	phLoad
)

var phaseNames = [3]string{"extract", "transform", "load"}

// phases is the handle a benchmark-owned body makes its three phase
// calls through.
type phases struct {
	r      *recorder
	ctx    *faas.Ctx
	seq    int
	parent int64
}

func (r *recorder) phases(ctx *faas.Ctx) phases {
	if r == nil {
		return phases{ctx: ctx}
	}
	seq, inv := int(ctx.Arg("arrival")), int(ctx.Arg("inv"))
	r.mu.Lock()
	parent := r.roots[[2]int{seq, inv}]
	r.mu.Unlock()
	return phases{r: r, ctx: ctx, seq: seq, parent: parent}
}

// timed runs one phase call inside a span.
func (ph phases) timed(i int, call func() error) error {
	r := ph.r
	if r == nil {
		return call()
	}
	sp := r.open(ph.seq+1, ph.parent, phaseNames[i], int(ph.ctx.Node()))
	err := call()
	r.done(&sp, r.kept(ph.seq))
	if ph.seq >= r.first {
		r.mu.Lock()
		r.own[i] += sp.end - sp.start
		r.phase[i] += sp.end - sp.start
		r.mu.Unlock()
	}
	return err
}

func (ph phases) extract(key string) (blob faas.Blob, err error) {
	err = ph.timed(phExtract, func() (e error) { blob, e = ph.ctx.Extract(key); return })
	return blob, err
}

func (ph phases) transform(d time.Duration, peak int64) error {
	return ph.timed(phTransform, func() error { return ph.ctx.Transform(d, peak) })
}

func (ph phases) load(key string, size int64, kind faas.ObjKind) error {
	return ph.timed(phLoad, func() error { return ph.ctx.Load(key, faas.Blob{Size: size}, kind) })
}

// hook records a non-yielding platform hook call: a zero-length span
// on the virtual clock carrying its host-clock cost. Host time is
// valid here because the call never hands the scheduler to another
// process.
func (r *recorder) hook(name string, req *faas.Request, sum *int64, call func()) {
	start := time.Now()
	call()
	ns := time.Since(start).Nanoseconds()
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	*sum += ns
	parent, ok := r.byReq[req]
	var seq int
	if ok {
		seq = int(req.Args["arrival"])
	}
	if ok && r.kept(seq) {
		r.next++
		now := r.env.Now()
		r.spans = append(r.spans, span{trace: seq + 1, id: r.next, parent: parent, name: name, start: now, end: now, hostNs: ns})
	}
	r.mu.Unlock()
}

// The decorators below sit on the platform's assignable seams; each
// forwards to the component core.NewSystem installed.

type tracedAdvisor struct {
	r     *recorder
	inner faas.Advisor
}

func (t tracedAdvisor) Advise(req *faas.Request) (adv faas.Advice) {
	t.r.hook("advise", req, &t.r.adviseNs, func() { adv = t.inner.Advise(req) })
	return adv
}

type tracedRouter struct {
	r     *recorder
	inner faas.Router
}

func (t tracedRouter) Route(req *faas.Request, all, warm []*faas.Invoker) (inv *faas.Invoker) {
	t.r.hook("route", req, &t.r.routeNs, func() { inv = t.inner.Route(req, all, warm) })
	return inv
}

// tracedObserver forwards both observer interfaces: the platform finds
// PlacementObserver by type assertion on the same value.
type tracedObserver struct {
	r      *recorder
	inner  faas.CompletionObserver
	placed faas.PlacementObserver
}

func (t tracedObserver) OnComplete(req *faas.Request, res *faas.Result) {
	t.r.hook("observe", req, &t.r.observeNs, func() { t.inner.OnComplete(req, res) })
}

func (t tracedObserver) OnPlaced(node simnet.NodeID) {
	// Growing the cache can migrate objects, which blocks: no host
	// timing, and the virtual cost is off the invocation's path.
	if t.placed != nil {
		t.placed.OnPlaced(node)
	}
}

// tracedGovernor times cache reclaim on the sandbox set-up path. It
// blocks on the virtual clock, so it gets a virtual span only.
type tracedGovernor struct {
	r     *recorder
	inner faas.MemoryGovernor
}

func (t tracedGovernor) Reclaim(node simnet.NodeID, need int64) (time.Duration, error) {
	sp := t.r.open(0, 0, "govern", int(node))
	took, err := t.inner.Reclaim(node, need)
	t.r.done(&sp, false)
	if t.r.on.Load() {
		t.r.mu.Lock()
		t.r.scaledown += sp.end - sp.start
		t.r.mu.Unlock()
	}
	return took, err
}

// install puts the decorators on a platform.
func (r *recorder) install(p *faas.Platform) {
	p.Advisor = tracedAdvisor{r, p.Advisor}
	p.Router = tracedRouter{r, p.Router}
	po, _ := p.Observer.(faas.PlacementObserver)
	p.Observer = tracedObserver{r, p.Observer, po}
	p.Governor = tracedGovernor{r, p.Governor}
}

// writeChrome writes the kept spans as Chrome trace_event JSON (open in
// chrome://tracing or ui.perfetto.dev): timestamps are virtual
// microseconds, pid is the node, tid the arrival.
func writeChrome(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, sp := range spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d",
			strconv.Quote(sp.name), float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.node, sp.trace, sp.id, sp.parent)
		if sp.hostNs > 0 {
			fmt.Fprintf(bw, ",\"host_ns\":%d", sp.hostNs)
		}
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
