package faas

import (
	"time"

	"ofc/internal/simnet"
	"ofc/internal/trace"
)

// Ctx is the execution context a function body runs with. It exposes
// the ETL phases explicitly so the platform can account them the way
// the paper reports them (Figures 3 and 7).
type Ctx struct {
	p   *Platform
	inv *Invoker
	sb  *Sandbox
	req *Request

	tref      trace.Ref // the execute span the body runs under
	extract   time.Duration
	transform time.Duration
	load      time.Duration
	peakMem   int64
	bytesIn   int64
	bytesOut  int64
	readOps   int64
	writeOps  int64
	rescued   bool
	swapped   bool
}

// Node returns the worker node the invocation runs on.
func (c *Ctx) Node() simnet.NodeID { return c.inv.node.ID }

// Args returns the function-specific arguments.
func (c *Ctx) Args() map[string]float64 { return c.req.Args }

// Arg returns one argument value (0 when absent).
func (c *Ctx) Arg(name string) float64 { return c.req.Args[name] }

// InputKeys returns the annotated object-identifier arguments.
func (c *Ctx) InputKeys() []string { return c.req.InputKeys }

// Trace returns the execute span the body runs under (zero when
// tracing is off), so helper functions injected by the platform (the
// Persistor) can parent their spans to it.
func (c *Ctx) Trace() trace.Ref { return c.tref }

// putOpts assembles the storage intent for this invocation; the
// storage op's spans nest under tref, the phase span that issues it.
func (c *Ctx) putOpts(kind ObjKind, tref trace.Ref) PutOpts {
	return PutOpts{Kind: kind, Pipeline: c.req.Pipeline, ShouldCache: c.req.shouldCache,
		Benefit: c.req.benefit, Trace: tref}
}

// Extract reads one input object, charging the Extract phase.
func (c *Ctx) Extract(key string) (Blob, error) {
	sp := c.p.Tracer.Begin(c.tref.Trace, c.tref.Span, "extract", c.inv.node.ID)
	opts := c.putOpts(KindInput, sp.Ref())
	start := c.p.env.Now()
	blob, err := c.inv.storage.Get(c.inv.node.ID, key, opts)
	c.extract += time.Duration(c.p.env.Now() - start)
	if err == nil {
		c.bytesIn += blob.Size
		c.readOps++
	} else {
		sp.SetNum("err", 1)
	}
	c.p.Tracer.End(&sp)
	return blob, err
}

// Transform models the compute phase: duration d with a peak memory
// demand of peak bytes. If the demand exceeds the sandbox limit, the
// §5.3 semantics apply: long-running invocations are rescued by the
// Monitor raising the cgroup cap; short ones are OOM-killed (the
// platform retries them at the tenant-booked memory).
func (c *Ctx) Transform(d time.Duration, peak int64) (err error) {
	sp := c.p.Tracer.Begin(c.tref.Trace, c.tref.Span, "transform", c.inv.node.ID)
	start := c.p.env.Now()
	defer func() {
		c.transform += time.Duration(c.p.env.Now() - start)
		if err != nil {
			sp.SetNum("oom", 1)
		}
		c.p.Tracer.End(&sp)
	}()
	if peak > c.peakMem {
		c.peakMem = peak
	}
	if peak <= c.sb.mem {
		c.p.env.Sleep(d)
		return nil
	}
	// Slight overshoot: the kernel swaps instead of killing (§5.3
	// "it may experience swapping activity, resulting in degraded
	// performance"). The transform slows proportionally.
	if overshoot := float64(peak-c.sb.mem) / float64(c.sb.mem); overshoot <= swapTolerance {
		c.swapped = true
		c.p.stats.Swaps++
		c.p.env.Sleep(d + time.Duration(float64(d)*overshoot*swapSlowdown))
		return nil
	}
	// Memory pressure.
	if c.p.MonitorEnabled && d >= monitorMinRuntime {
		// The Monitor's periodic cgroup poll notices the pressure and
		// asks the Sizer to raise the cap (§5.3): we charge half a
		// poll period of exposure plus the reservation work; the
		// cgroup syscall itself is asynchronous.
		c.p.env.Sleep(monitorPoll / 2)
		target := peak + peak/10 // 10% headroom
		if target > c.req.Function.MemoryBooked {
			target = c.req.Function.MemoryBooked
		}
		if target < peak {
			// Even the booked memory cannot satisfy the demand: the
			// tenant under-provisioned; the invocation dies for real.
			c.p.env.Sleep(d / 4)
			return ErrOOM
		}
		if _, err := c.inv.resize(c.sb, target); err != nil {
			return ErrOOM
		}
		c.rescued = true
		c.p.env.Sleep(d)
		return nil
	}
	// Short invocation: the OOM killer terminates the container
	// partway through the transform.
	kill := d / 4
	if kill > 200*time.Millisecond {
		kill = 200 * time.Millisecond
	}
	c.p.env.Sleep(kill)
	return ErrOOM
}

// Load writes one output object, charging the Load phase.
func (c *Ctx) Load(key string, blob Blob, kind ObjKind) error {
	if kind == KindIntermediate && c.req.FinalStage {
		kind = KindFinal
	}
	sp := c.p.Tracer.Begin(c.tref.Trace, c.tref.Span, "load", c.inv.node.ID)
	opts := c.putOpts(kind, sp.Ref())
	start := c.p.env.Now()
	err := c.inv.storage.Put(c.inv.node.ID, key, blob, opts)
	c.load += time.Duration(c.p.env.Now() - start)
	if err == nil {
		c.bytesOut += blob.Size
		c.writeOps++
	} else {
		sp.SetNum("err", 1)
	}
	c.p.Tracer.End(&sp)
	return err
}

// PipelineID returns the pipeline instance id of the invocation, or
// the empty string for single-stage requests.
func (c *Ctx) PipelineID() string { return c.req.Pipeline }
