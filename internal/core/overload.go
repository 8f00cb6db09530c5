package core

import (
	"time"

	"ofc/internal/faas"
	"ofc/internal/memctl"
	"ofc/internal/metrics"
	"ofc/internal/overload"
)

// OverloadControl is the wired overload subsystem of one System: the
// gate in front of the platform, the budget under every retry path,
// the controller reading the health signals, and the timeline of
// state transitions for reports.
type OverloadControl struct {
	sys        *System
	Admission  *overload.Admission
	Budget     *overload.RetryBudget
	Controller *overload.Controller
	Timeline   *metrics.Timeline
}

// newOverloadControl builds end-to-end overload control for s
// (Options.Overload): an admission queue gating Platform.Invoke, a
// retry budget shared by faas OOM/reroute retries and the storage
// resilience layer, and the Normal→Brownout→Shed controller consuming
// queue depth, OOM-kill rate, reclaim-failure rate and store latency.
// NewSystem hands the budget to the proxy's resilience layer; the
// controller's sampling loop is armed by Start.
func newOverloadControl(s *System) *OverloadControl {
	adm := overload.NewAdmission(s.Env)
	bud := overload.NewRetryBudget(s.Env)
	oc := &OverloadControl{
		sys: s, Admission: adm, Budget: bud, Timeline: &metrics.Timeline{},
	}
	oc.Controller = overload.NewController(s.Env, func() overload.Signals {
		return overload.Signals{
			QueueDepth:      float64(adm.Depth()),
			OOMKills:        float64(s.Platform.Stats().OOMKills),
			ReclaimFailures: float64(s.AggregateAgentMetrics().ReclaimFailures),
			StoreLatencyP99: s.RC.StoreLatencyP99(),
		}
	})
	oc.Controller.OnChange(func(from, to overload.State) {
		oc.Timeline.Mark(time.Duration(s.Env.Now()), from.String()+"->"+to.String())
		oc.apply(to)
	})
	s.Platform.Admission = admissionAdapter{adm}
	s.Platform.Retry = faasRetryGate{bud}
	return oc
}

// apply propagates a state change to every degradation hook.
func (oc *OverloadControl) apply(to overload.State) {
	brown := to >= overload.Brownout
	pressure := memctl.PressureNormal
	if brown {
		pressure = memctl.PressureBrownout
	}
	oc.Admission.SetLevel(to)
	oc.sys.RC.SetBrownout(brown)
	if r, ok := oc.sys.Platform.Router.(*Router); ok {
		r.SetBrownout(brown)
	}
	for _, a := range oc.sys.Agents() {
		a.SetPressure(pressure)
	}
}

// State reports the current degradation level.
func (oc *OverloadControl) State() overload.State { return oc.Controller.State() }

// admissionAdapter exposes the tenant-keyed gate as a
// faas.AdmissionController. Platform helper functions (tenant "ofc" —
// the Persistor carrying acked writes to durability) are exempt: the
// overload layer must never delay or shed the durability path.
type admissionAdapter struct{ adm *overload.Admission }

func (a admissionAdapter) Admit(req *faas.Request) (func(), error) {
	if req.Function.Tenant == "ofc" {
		return func() {}, nil
	}
	return a.adm.Admit(req.Function.Tenant)
}

// faasRetryGate adapts the budget to faas.RetryPolicy, with the same
// platform-tenant exemption as admission.
type faasRetryGate struct{ bud *overload.RetryBudget }

func (g faasRetryGate) AllowRetry(req *faas.Request, cause error) bool {
	if req.Function != nil && req.Function.Tenant == "ofc" {
		return true
	}
	return g.bud.Allow()
}

// storeRetryGate adapts the budget to store.RetryGate. Storage
// re-attempts have no tenant context; a denied retry surfaces as an
// unavailability error and the proxy falls back to the RSDS, so
// durability is unaffected.
type storeRetryGate struct{ bud *overload.RetryBudget }

func (g storeRetryGate) AllowRetry() bool { return g.bud.Allow() }
