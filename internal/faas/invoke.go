package faas

import (
	"errors"
	"fmt"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// PipelineAware is implemented by storage layers that track pipeline
// intermediates (OFC's rclib); the controller notifies them when a
// pipeline instance completes so intermediates can be discarded (§6.3).
type PipelineAware interface {
	PipelineDone(pipeline string)
}

// Invoke runs one function invocation end to end and blocks the
// calling process until completion. It must be called from a
// simulation process.
func (p *Platform) Invoke(req *Request) *Result {
	res := &Result{Start: p.env.Now()}
	p.stats.Invocations++
	idx := p.stats.Invocations

	// The root span of the invocation's trace. Every tracer call below
	// is nil-safe: with tracing off, root is the inert zero Span and
	// req.tref stays zero.
	tr := p.Tracer
	root := tr.Begin(tr.InvocationTrace(idx), 0, "invoke", p.ctrl)
	req.tref = root.Ref()

	fn := req.Function
	if fn == nil || fn.id == "" {
		res.Err = ErrUnregistered
		res.End = p.env.Now()
		root.SetNum("err", 1)
		tr.End(&root)
		return res
	}
	root.SetStr("fn", fn.ID())

	// Overload gate: queue (or reject) before spending any platform
	// work. The wait shows up in QueueDelay; a shed invocation is
	// recorded and observed like any other completed activation so the
	// log stays whole, but it never counts as a platform failure — it
	// was refused, not broken.
	if p.Admission != nil {
		qsp := tr.Begin(root.Trace, root.ID, "queue", p.ctrl)
		release, err := p.Admission.Admit(req)
		if err != nil {
			qsp.SetNum("shed", 1)
			tr.End(&qsp)
			p.stats.Shed++
			res.Err = err
			res.End = p.env.Now()
			res.QueueDelay = time.Duration(res.End - res.Start)
			root.SetNum("shed", 1)
			tr.End(&root)
			p.recordActivation(req, res)
			if p.Observer != nil {
				p.Observer.OnComplete(req, res)
			}
			return res
		}
		tr.End(&qsp)
		defer release()
	}

	// Controller receives the request.
	p.env.Sleep(p.cfg.ControllerOverhead)

	// Consult the Predictor (OFC) before placement. The advice span
	// covers the §7.2.1 critical-path overhead plus the lookup; the
	// Predictor's own "predict" span nests under it via req.tref.
	wanted := fn.MemoryBooked
	if p.Advisor != nil {
		asp := tr.Begin(root.Trace, root.ID, "advice", p.ctrl)
		req.tref = asp.Ref()
		p.env.Sleep(AdviceOverhead)
		adv := p.Advisor.Advise(req)
		req.tref = root.Ref()
		if adv.Use {
			req.advised = true
			req.predMem = clamp(adv.Mem, minSandboxMem, min(fn.MemoryBooked, maxSandboxMem))
			wanted = req.predMem
			asp.SetNum("use", 1)
		} else {
			asp.SetNum("use", 0)
		}
		req.shouldCache = adv.ShouldCache
		req.benefit = adv.Benefit
		tr.End(&asp)
	}

	attempts := 0
	exec := func(w int64) error {
		attempts++
		return p.execute(req, w, res, attempts)
	}
	attempt := exec(wanted)
	if errors.Is(attempt, ErrOOM) {
		// The kill happened regardless of what the retry budget says, so
		// it is counted unconditionally; only the re-execution is
		// arbitrated. A denied retry surfaces as ErrRetryBudget wrapping
		// the OOM — typed, not silent — and the activation record below
		// is written either way.
		p.stats.OOMKills++
		if p.Retry == nil || p.Retry.AllowRetry(req, attempt) {
			// §5.3: immediate retry with the tenant-booked memory.
			p.stats.Retries++
			res.Retried = true
			req.advised = false
			attempt = exec(fn.MemoryBooked)
		} else {
			p.stats.RetryDenied++
			attempt = fmt.Errorf("%w: %w", ErrRetryBudget, attempt)
		}
	}
	// A worker dying mid-run loses the activation; the controller
	// resubmits on a surviving node, bounded so a collapsing cluster
	// still terminates. Reroutes draw on the same retry budget.
	for rr := 0; errors.Is(attempt, ErrInvokerDown) && rr < 3; rr++ {
		if p.Retry != nil && !p.Retry.AllowRetry(req, attempt) {
			p.stats.RetryDenied++
			attempt = fmt.Errorf("%w: %w", ErrRetryBudget, attempt)
			break
		}
		p.stats.Reroutes++
		attempt = exec(wanted)
	}
	res.Err = attempt
	if attempt != nil {
		p.stats.Failures++
		root.SetNum("err", 1)
	}
	res.End = p.env.Now()
	res.QueueDelay = time.Duration(res.End-res.Start) - res.Extract - res.Transform - res.Load
	if res.Retried {
		root.SetNum("oomRetry", 1)
	}
	if attempts > 1 {
		root.SetNum("attempts", int64(attempts))
	}
	tr.End(&root)

	p.recordActivation(req, res)
	if p.Observer != nil {
		p.Observer.OnComplete(req, res)
	}
	return res
}

// PlacementObserver is notified right after a sandbox has been
// provisioned for an invocation, before the body runs (OFC's
// cacheAgent grows the cache with the sandbox's booked-but-unused
// memory at this point, §4).
type PlacementObserver interface {
	OnPlaced(node simnet.NodeID)
}

// execute performs one placement + sandbox acquisition + body run.
// attempt is 1 for the first try, higher for OOM retries and reroutes.
func (p *Platform) execute(req *Request, wanted int64, res *Result, attempt int) error {
	fn := req.Function
	tr := p.Tracer
	esp := tr.Begin(req.tref.Trace, req.tref.Span, "execute", p.ctrl)
	esp.SetNum("attempt", int64(attempt))
	qsp := tr.Begin(esp.Trace, esp.ID, "acquire", p.ctrl)
	inv, sb, cold, scale, err := p.acquire(req, wanted)
	if err != nil {
		qsp.SetNum("err", 1)
		tr.End(&qsp)
		esp.SetNum("err", 1)
		tr.End(&esp)
		return err
	}
	qsp.Node = inv.node.ID
	if cold {
		qsp.SetNum("cold", 1)
	}
	tr.End(&qsp)
	esp.Node = inv.node.ID
	if po, ok := p.Observer.(PlacementObserver); ok {
		po.OnPlaced(inv.node.ID)
	}
	res.Node = inv.node.ID
	res.ColdStart = res.ColdStart || cold
	res.ScaleDownTime += scale
	res.InitialMem = sb.mem
	if cold {
		p.stats.ColdStarts++
	} else {
		p.stats.WarmStarts++
	}

	// A sandbox hosts one body at a time, busy from acquire to park or
	// destroy, so the body's Ctx is the sandbox's, reset.
	ctx := &sb.ctx
	*ctx = Ctx{p: p, inv: inv, sb: sb, req: req, tref: esp.Ref()}
	err = fn.Body(ctx)

	res.Extract += ctx.extract
	res.Transform += ctx.transform
	res.Load += ctx.load
	res.BytesIn += ctx.bytesIn
	res.BytesOut += ctx.bytesOut
	res.ReadOps += ctx.readOps
	res.WriteOps += ctx.writeOps
	if ctx.peakMem > res.PeakMem {
		res.PeakMem = ctx.peakMem
	}
	res.SandboxMem = sb.mem
	res.Rescued = res.Rescued || ctx.rescued
	res.Swapped = res.Swapped || ctx.swapped
	if ctx.rescued {
		p.stats.Rescues++
	}

	if errors.Is(err, ErrOOM) {
		// The OOM killer took the container down with the invocation.
		inv.destroySandbox(sb)
		esp.SetNum("oom", 1)
		tr.End(&esp)
		return ErrOOM
	}
	if inv.Down() {
		// The node died under the invocation: its sandbox and any
		// result are gone; the caller reroutes.
		esp.SetNum("invokerDown", 1)
		tr.End(&esp)
		return ErrInvokerDown
	}
	inv.parkSandbox(sb)

	// Pipeline bookkeeping: discard intermediates when the final stage
	// of a pipeline completes (§6.3).
	if err == nil && req.Pipeline != "" && req.FinalStage {
		if pa, ok := inv.storage.(PipelineAware); ok {
			pa.PipelineDone(req.Pipeline)
		}
	}
	tr.End(&esp)
	return err
}

// acquire routes the request and returns a busy sandbox ready to run
// it.
func (p *Platform) acquire(req *Request, wanted int64) (*Invoker, *Sandbox, bool, time.Duration, error) {
	const maxTries = 200
	for try := 0; ; try++ {
		target, anyLive := p.route(req, wanted)
		if !anyLive {
			return nil, nil, false, 0, ErrNoCapacity
		}
		if target == nil {
			if try >= maxTries {
				return nil, nil, false, 0, ErrNoCapacity
			}
			p.env.Sleep(10 * time.Millisecond)
			continue
		}

		// Controller -> invoker hop.
		if err := p.net.TryTransfer(p.ctrl, target.node.ID, 512); err != nil {
			// The worker died between routing and dispatch; pick
			// another one.
			if try >= maxTries {
				return nil, nil, false, 0, ErrNoCapacity
			}
			continue
		}
		p.env.Sleep(invokerOverhead)

		if sb := target.idleSandbox(req.Function, wanted); sb != nil && target.claim(sb) {
			var scale time.Duration
			if req.advised && sb.mem != wanted {
				var err error
				scale, err = target.resize(sb, wanted)
				if err != nil {
					// Could not grow on this node: park it back and
					// fall through to another attempt.
					target.parkSandbox(sb)
					if try >= maxTries {
						return nil, nil, false, scale, ErrNoCapacity
					}
					p.env.Sleep(10 * time.Millisecond)
					continue
				}
			}
			return target, sb, false, scale, nil
		}
		// Cold start.
		sb, scale, err := target.createSandbox(req.Function, wanted)
		if err == nil {
			return target, sb, true, scale, nil
		}
		if try >= maxTries {
			return nil, nil, false, scale, ErrNoCapacity
		}
		p.env.Sleep(10 * time.Millisecond)
	}
}

// route picks the invoker for one placement try among the live workers:
// the Router's choice, else the default policy's, else nil (nobody has
// room right now). anyLive is false when every worker is down.
func (p *Platform) route(req *Request, wanted int64) (target *Invoker, anyLive bool) {
	live, warmIdle := p.live[:0], p.warmIdle[:0]
	for _, inv := range p.invokers {
		if inv.Down() {
			continue
		}
		live = append(live, inv)
		if inv.HasIdleSandbox(req.Function) {
			warmIdle = append(warmIdle, inv)
		}
	}
	if len(live) > 0 {
		if p.Router != nil {
			target = p.Router.Route(req, live, warmIdle)
		}
		if target == nil {
			target = p.defaultRoute(req, live, warmIdle, wanted)
		}
	}
	p.live, p.warmIdle = live, warmIdle
	return target, len(live) > 0
}

// defaultRoute is vanilla OWK: a warm idle sandbox anywhere (home
// first), otherwise the home invoker if it has room, otherwise the
// first invoker with room (counting memory reclaimable from the
// cache).
func (p *Platform) defaultRoute(req *Request, all []*Invoker, warmIdle []*Invoker, wanted int64) *Invoker {
	n := len(all)
	home := p.homeIndex(req.Function, n)
	if len(warmIdle) > 0 {
		for i := 0; i < n; i++ {
			inv := all[(home+i)%n]
			for _, w := range warmIdle {
				if w == inv {
					return inv
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		inv := all[(home+i)%n]
		if inv.FreeForSandboxes() >= wanted {
			return inv
		}
	}
	// Allow placements that will shrink the cache.
	for i := 0; i < n; i++ {
		inv := all[(home+i)%n]
		if inv.Capacity()-inv.Reserved() >= wanted {
			return inv
		}
	}
	return nil
}

// InvokeSequence runs requests one after another (an OWK "sequence"):
// each next stage is triggered by the platform upon completion of the
// previous one. It returns per-stage results.
func (p *Platform) InvokeSequence(reqs []*Request) []*Result {
	out := make([]*Result, 0, len(reqs))
	for i, req := range reqs {
		if i > 0 {
			// Platform-driven trigger of the next stage.
			p.env.Sleep(p.cfg.ControllerOverhead / 2)
		}
		res := p.Invoke(req)
		out = append(out, res)
		if res.Err != nil {
			break
		}
	}
	return out
}

// InvokeParallel fans out requests concurrently and waits for all of
// them (a parallel pipeline stage).
func (p *Platform) InvokeParallel(reqs []*Request) []*Result {
	out := make([]*Result, len(reqs))
	wg := sim.NewWaitGroup(p.env)
	for i, req := range reqs {
		wg.Add(1)
		p.env.Go(func() {
			defer wg.Done()
			out[i] = p.Invoke(req)
		})
	}
	wg.Wait()
	return out
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
