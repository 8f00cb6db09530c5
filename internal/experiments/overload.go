package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ofc/internal/chaos"
	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/overload"
	"ofc/internal/sim"
	"ofc/internal/workload"
)

// TenantLoad is one tenant's ledger in the overload drill: what it
// offered, what completed, what the gate refused and what failed
// outright.
type TenantLoad struct {
	Name    string
	Offered int64
	Good    int64
	Shed    int64
	Failed  int64
}

// OverloadResult is the evidence the overload drill collects: goodput
// per tenant stays bounded under a 5× spike with a concurrent node
// crash, the retry budget caps re-execution work, the state machine
// walks Normal→Brownout→Shed and back, and no acknowledged write is
// lost.
type OverloadResult struct {
	Invocations int64
	SpikeTenant string
	Tenants     []TenantLoad

	Shed          int64
	ShedQueueFull int64
	ShedStale     int64
	MaxQueueDepth int

	OOMKills     int64
	Retries      int64
	Reroutes     int64
	RetryDenied  int64
	StoreRetries int64

	BudgetGranted int64
	BudgetDenied  int64
	BudgetCap     float64

	BrownoutSkips    int64
	BrownoutBypasses int64

	BaselineP99 time.Duration
	SpikeP99    time.Duration
	RecoverP99  time.Duration

	Transitions []string
	FinalState  string
	ReachedShed bool

	Outputs     int
	LostOutputs int
}

// TotalRetries is every re-execution the run performed: faas OOM
// retries, controller reroutes and storage re-attempts.
func (r *OverloadResult) TotalRetries() int64 {
	return r.Retries + r.Reroutes + r.StoreRetries
}

// Healthy reports whether the run degraded gracefully: the gate shed
// load and the state machine reached Shed, rode the storm out and
// re-entered Normal without flapping; retries stayed under the budget
// cap; every tenant kept useful goodput (the non-spiking tenants at
// least 60% of their offered load); the p99 of admitted work stayed
// bounded; and nothing acknowledged was lost.
func (r *OverloadResult) Healthy() bool {
	if r.Invocations == 0 || r.LostOutputs > 0 {
		return false
	}
	if r.Shed == 0 || !r.ReachedShed || r.FinalState != "normal" {
		return false
	}
	if len(r.Transitions) < 2 || len(r.Transitions) > 16 {
		return false
	}
	if float64(r.TotalRetries()) > r.BudgetCap {
		return false
	}
	for _, t := range r.Tenants {
		if t.Good == 0 {
			return false
		}
		if t.Name != r.SpikeTenant && t.Good*10 < t.Offered*6 {
			return false
		}
	}
	if r.SpikeP99 > 5*time.Second || r.BaselineP99 > 2*time.Second {
		return false
	}
	return true
}

// Overload runs four tenants against a deployment whose admission gate
// allows four concurrent invocations, then hits it with the combined
// drill: tenant t0's arrival rate jumps ~7× while one worker crashes
// mid-spike and restarts before the spike ends. Every fifth t0 request
// under-predicts its memory and OOMs, so the spike also pressures the
// retry budget. The run reports per-tenant goodput, shed counts, the
// degradation timeline and the zero-loss check; a (seed) pair replays
// identically.
func Overload(seed int64, quick bool) (*Table, *OverloadResult) {
	cfg := DefaultDeploy()
	cfg.Seed = seed
	cfg.Tune = func(o *core.Options) {
		o.Overload = true
		o.KV.CrashDetectTimeout = 3 * time.Second
	}
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	env := d.Env
	oc := sys.Overload

	// Phase plan: baseline → spike (crash + restart inside it) → calm
	// cooldown long enough for the controller to walk back to Normal.
	spikeStart := 20 * time.Second
	spikeLen := 30 * time.Second
	crashAfter := 10 * time.Second
	downtime := 10 * time.Second
	runFor := 90 * time.Second
	if quick {
		spikeStart = 8 * time.Second
		spikeLen = 15 * time.Second
		crashAfter = 5 * time.Second
		downtime = 6 * time.Second
		runFor = 50 * time.Second
	}
	calmAt := spikeStart + spikeLen

	const (
		basePace  = 700 * time.Millisecond
		spikePace = 75 * time.Millisecond
		workDur   = 300 * time.Millisecond
		oomEvery  = 5
	)

	tenants := []string{"t0", "t1", "t2", "t3"}
	spikeTenant := tenants[0]

	// The spike/calm hooks flip the victim tenant's pace on the same
	// deterministic timeline as the crash.
	paces := make(map[string]time.Duration, len(tenants))
	for _, t := range tenants {
		paces[t] = basePace
	}

	sched := chaos.NewSchedule()
	sched.OverloadCrash(spikeStart, spikeLen, crashAfter, downtime, d.Workers[1],
		func() { paces[spikeTenant] = spikePace },
		func() { paces[spikeTenant] = basePace })
	sys.ApplyChaos(sched, seed)

	// One function per tenant: read a staged input, transform, write a
	// final output under a driver-chosen key. Every oomEvery-th t0
	// request peaks above the 128 MB advice (but under booked), so it is
	// OOM-killed and needs a budgeted retry; the transform is far below
	// the monitor's rescue threshold.
	fns := make(map[string]*faas.Function, len(tenants))
	for _, tenant := range tenants {
		tenant := tenant
		fns[tenant] = &faas.Function{
			Name: "ovl-" + tenant, Tenant: tenant, MemoryBooked: 256 << 20, InputType: "image",
			Body: func(ctx *faas.Ctx) error {
				if _, err := ctx.Extract(ctx.InputKeys()[0]); err != nil {
					return err
				}
				peak := int64(96 << 20)
				if ctx.Arg("oom") > 0 {
					peak = 200 << 20
				}
				if err := ctx.Transform(workDur, peak); err != nil {
					return err
				}
				out := fmt.Sprintf("ovl/%s/out/%d", tenant, int(ctx.Arg("seq")))
				return ctx.Load(out, faas.Blob{Size: 64 << 10}, faas.KindFinal)
			},
		}
		d.Register(fns[tenant])
	}
	d.Platform.Advisor = alwaysCache{}

	rng := rand.New(rand.NewSource(seed))
	pools := make(map[string]*workload.InputPool, len(tenants))
	for _, tenant := range tenants {
		pools[tenant] = workload.NewInputPool(rng, "image", "ovl/"+tenant+"/in", []int64{32 << 10, 64 << 10}, 3)
	}

	res := &OverloadResult{SpikeTenant: spikeTenant, Tenants: make([]TenantLoad, len(tenants))}
	for ti, tenant := range tenants {
		res.Tenants[ti].Name = tenant
	}
	var outputs []string
	var baseLat, spikeLat, recoverLat []time.Duration

	record := func(tl *TenantLoad, seq int, start time.Duration, r *faas.Result) {
		switch {
		case r.Err == nil:
			tl.Good++
			outputs = append(outputs, fmt.Sprintf("ovl/%s/out/%d", tl.Name, seq))
			lat := time.Duration(r.End - r.Start)
			switch {
			case start < spikeStart:
				baseLat = append(baseLat, lat)
			case start < calmAt:
				spikeLat = append(spikeLat, lat)
			default:
				recoverLat = append(recoverLat, lat)
			}
		case errors.Is(r.Err, overload.ErrShed):
			tl.Shed++
		default:
			tl.Failed++
		}
	}

	d.Run(func() {
		for _, pool := range pools {
			pool.Stage(d.Writer)
		}
		wg := sim.NewWaitGroup(env)
		for ti, tenant := range tenants {
			ti, tenant := ti, tenant
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				pool := pools[tenant]
				tl := &res.Tenants[ti]
				// Staggered starts de-synchronize the tenants' arrival
				// processes (lockstep arrivals make the queue-depth
				// samples spiky and the baseline artificially bursty).
				env.Sleep(time.Duration(ti) * 170 * time.Millisecond)
				for seq := 0; ; seq++ {
					start := time.Duration(env.Now())
					if start >= runFor {
						return
					}
					seq := seq
					in := pool.Inputs[seq%len(pool.Inputs)]
					args := map[string]float64{"seq": float64(seq)}
					if tenant == spikeTenant && seq%oomEvery == oomEvery-1 {
						args["oom"] = 1
					}
					tl.Offered++
					wg.Add(1)
					env.Go(func() {
						defer wg.Done()
						r := d.Platform.Invoke(&faas.Request{
							Function: fns[tenant], Args: args,
							InputKeys: []string{in.Key}, InputFeatures: in.Features,
						})
						record(tl, seq, start, r)
					})
					env.Sleep(paces[tenant])
				}
			})
		}
		wg.Wait()
		// Let the queue drain and the controller observe the calm before
		// the Run drain stops the clock.
		env.Sleep(2 * time.Second)
	})

	for _, tl := range res.Tenants {
		res.Invocations += tl.Offered
	}

	ps := d.Platform.Stats()
	res.Shed, res.RetryDenied = ps.Shed, ps.RetryDenied
	res.OOMKills, res.Retries, res.Reroutes = ps.OOMKills, ps.Retries, ps.Reroutes
	cs := sys.RC.Stats()
	res.StoreRetries = cs.CacheRetries
	res.BrownoutSkips, res.BrownoutBypasses = cs.BrownoutSkips, cs.BrownoutBypasses
	as := oc.Admission.Stats()
	res.ShedQueueFull, res.ShedStale, res.MaxQueueDepth = as.ShedQueueFull, as.ShedStale, as.MaxDepth
	bs := oc.Budget.Stats()
	res.BudgetGranted, res.BudgetDenied = bs.Granted, bs.Denied
	res.BudgetCap = oc.Budget.Cap(time.Duration(env.Now()))

	res.BaselineP99 = p99(baseLat)
	res.SpikeP99 = p99(spikeLat)
	res.RecoverP99 = p99(recoverLat)

	var timeline []string
	for _, tr := range oc.Controller.Transitions() {
		label := tr.From.String() + "->" + tr.To.String()
		res.Transitions = append(res.Transitions, label)
		timeline = append(timeline, fmt.Sprintf("t=%v %s", time.Duration(tr.At), label))
		res.ReachedShed = res.ReachedShed || tr.To == overload.Shed
	}
	res.FinalState = oc.State().String()

	// Zero-data-loss check against the RSDS ground truth: every final
	// output acknowledged to an invoker must be persisted — whether it
	// took the ordinary shadow+persistor path or the brownout bypass.
	res.Outputs = len(outputs)
	for _, key := range outputs {
		m, ok := d.Store.MetaOf(key)
		if !ok || m.IsShadow() || m.Size == 0 {
			res.LostOutputs++
		}
	}

	t := &Table{
		Title:   "Overload drill — 5× spike on one tenant with a mid-spike worker crash",
		Headers: []string{"Metric", "Value"},
	}
	t.Add("invocations", fmt.Sprintf("%d offered (%d shed, %d denied retries)", res.Invocations, res.Shed, res.RetryDenied))
	for _, tl := range res.Tenants {
		label := "tenant " + tl.Name
		if tl.Name == res.SpikeTenant {
			label += " (spike)"
		}
		t.Add(label, fmt.Sprintf("offered %d, good %d, shed %d, failed %d", tl.Offered, tl.Good, tl.Shed, tl.Failed))
	}
	t.Add("queue", fmt.Sprintf("max depth %d; shed %d full, %d stale", res.MaxQueueDepth, res.ShedQueueFull, res.ShedStale))
	t.Add("retries", fmt.Sprintf("%d OOM kills → %d retries, %d reroutes, %d store retries (total %d ≤ cap %.0f)",
		res.OOMKills, res.Retries, res.Reroutes, res.StoreRetries, res.TotalRetries(), res.BudgetCap))
	t.Add("retry budget", fmt.Sprintf("%d granted, %d denied", res.BudgetGranted, res.BudgetDenied))
	t.Add("brownout", fmt.Sprintf("%d admissions skipped, %d writes diverted to RSDS", res.BrownoutSkips, res.BrownoutBypasses))
	t.Add("p99 latency", fmt.Sprintf("baseline %s, spike %s, recovery %s", fmtDur(res.BaselineP99), fmtDur(res.SpikeP99), fmtDur(res.RecoverP99)))
	t.Add("state timeline", strings.Join(timeline, " → "))
	t.Add("final state", res.FinalState)
	t.Add("final outputs", fmt.Sprintf("%d persisted, %d lost", res.Outputs-res.LostOutputs, res.LostOutputs))
	t.Note = "bounded degradation: fair per-tenant goodput under the spike, retries capped by the budget, no acked write lost"
	return t, res
}
