package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ofc/internal/faas"
	"ofc/internal/sim"
)

// FaaSLoad is the load injector of the paper's macro experiments
// (§7.2.2, Appendix A): it emulates several tenants, each owning one
// function (or pipeline), prepares their input data, and fires
// invocations at exponentially distributed intervals (or at the
// offsets of a replayed trace) over an observation window.
type FaaSLoad struct {
	env      *sim.Env
	platform *faas.Platform
	rng      *rand.Rand
	tenants  []*tenantState
}

// TenantReport aggregates one tenant's results.
type TenantReport struct {
	Name        string
	Invocations int
	Failures    int
	ColdStarts  int
	// TotalExec is the sum of invocation (or pipeline) durations —
	// the quantity Figure 9 plots.
	TotalExec              time.Duration
	TotalE, TotalT, TotalL time.Duration
}

type tenantState struct {
	report TenantReport
	// run performs one invocation (or pipeline run), adds its failure,
	// cold starts and phases into rep, and returns its duration.
	run  func(id string, rep *TenantReport) time.Duration
	mean time.Duration
	// schedule, when non-empty, replays explicit offsets instead of a
	// stochastic arrival process.
	schedule []time.Duration
}

// NewFaaSLoad builds an injector over a platform.
func NewFaaSLoad(env *sim.Env, platform *faas.Platform, seed int64) *FaaSLoad {
	return &FaaSLoad{env: env, platform: platform, rng: rand.New(rand.NewSource(seed))}
}

// AddFunctionTenant registers a tenant invoking a single-stage
// function with inputs from pool. Each tenant derives a private
// argument-generator stream once, at registration: per-invocation
// draws never touch the injector's root generator.
func (fl *FaaSLoad) AddFunctionTenant(name string, spec *Spec, fn *faas.Function, pool *InputPool, mean time.Duration) {
	fl.tenants = append(fl.tenants, &tenantState{report: TenantReport{Name: name}, run: fl.functionRun(spec, fn, pool), mean: mean})
}

// functionRun is the run closure of a single-function tenant: one
// invocation of fn on an input from pool. It derives the tenant's
// private argument-generator stream from the root generator now.
func (fl *FaaSLoad) functionRun(spec *Spec, fn *faas.Function, pool *InputPool) func(id string, rep *TenantReport) time.Duration {
	rng := rand.New(rand.NewSource(fl.rng.Int63()))
	return func(id string, rep *TenantReport) time.Duration {
		in := pool.Pick()
		args := spec.GenArgs(rng)
		res := fl.platform.Invoke(NewRequest(fn, spec, in, args))
		rep.TotalE += res.Extract
		rep.TotalT += res.Transform
		rep.TotalL += res.Load
		if res.Err != nil {
			rep.Failures++
		}
		if res.ColdStart {
			rep.ColdStarts++
		}
		return res.Duration()
	}
}

// AddPipelineTenant registers a tenant running a pipeline.
func (fl *FaaSLoad) AddPipelineTenant(name string, pl *Pipeline, pool *InputPool, mean time.Duration) {
	st := &tenantState{report: TenantReport{Name: name}, mean: mean}
	st.run = func(id string, rep *TenantReport) time.Duration {
		in := pool.Pick()
		res := pl.Run(fl.platform, in, id)
		e, t, l := res.Phases()
		rep.TotalE += e
		rep.TotalT += t
		rep.TotalL += l
		for _, sr := range res.Results {
			if sr.ColdStart {
				rep.ColdStarts++
			}
		}
		if res.Err != nil {
			rep.Failures++
		}
		return res.Duration()
	}
	fl.tenants = append(fl.tenants, st)
}

// Start launches one process per tenant, firing invocations until the
// observation window closes. Invocations started before the deadline
// run to completion.
func (fl *FaaSLoad) Start(window time.Duration) {
	for ti, st := range fl.tenants {
		rng := rand.New(rand.NewSource(fl.rng.Int63()))
		prefix := fmt.Sprintf("t%d", ti)
		fl.env.Go(func() {
			seq := 0
			for {
				var wait time.Duration
				switch {
				case len(st.schedule) > 0:
					if seq >= len(st.schedule) {
						return
					}
					next := st.schedule[seq]
					now := time.Duration(fl.env.Now())
					if next < now {
						next = now
					}
					wait = next - now
				default:
					// Exponential inter-arrival times with the given mean.
					wait = time.Duration(-math.Log(1-rng.Float64()) * float64(st.mean))
				}
				if fl.env.Now()+wait >= sim.Time(window) {
					return
				}
				fl.env.Sleep(wait)
				seq++
				id := fmt.Sprintf("%s-%d", prefix, seq)
				st.report.TotalExec += st.run(id, &st.report)
				st.report.Invocations++
			}
		})
	}
}

// Reports returns the per-tenant aggregates.
func (fl *FaaSLoad) Reports() []TenantReport {
	out := make([]TenantReport, len(fl.tenants))
	for i, st := range fl.tenants {
		out[i] = st.report
	}
	return out
}

// AddTraceTenant registers a tenant replaying an explicit invocation
// schedule (offsets from the window start), the way production traces
// à la Azure Functions (Shahrad et al.) are replayed. Offsets past the
// window are dropped by Start's deadline check.
func (fl *FaaSLoad) AddTraceTenant(name string, spec *Spec, fn *faas.Function, pool *InputPool, offsets []time.Duration) {
	st := &tenantState{report: TenantReport{Name: name}, run: fl.functionRun(spec, fn, pool)}
	st.schedule = append([]time.Duration{}, offsets...)
	sort.Slice(st.schedule, func(i, j int) bool { return st.schedule[i] < st.schedule[j] })
	fl.tenants = append(fl.tenants, st)
}

// LoadTraceCSV parses one invocation offset per line, in seconds
// (decimal). Blank lines and lines starting with '#' are skipped.
func LoadTraceCSV(r io.Reader) ([]time.Duration, error) {
	var out []time.Duration
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		secs, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if secs < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative offset", line)
		}
		out = append(out, time.Duration(secs*float64(time.Second)))
	}
	return out, sc.Err()
}
