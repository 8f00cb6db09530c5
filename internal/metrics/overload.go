package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Mark is one labeled event on the virtual clock (a degradation-state
// transition, a phase boundary).
type Mark struct {
	At    time.Duration
	Label string
}

// Timeline is an append-only log of labeled events — the overload
// experiment's record of state-machine transitions.
type Timeline struct {
	marks []Mark
}

// Mark appends one event.
func (t *Timeline) Mark(at time.Duration, label string) {
	t.marks = append(t.marks, Mark{At: at, Label: label})
}

// Labels returns just the event labels, in order.
func (t *Timeline) Labels() []string {
	out := make([]string, len(t.marks))
	for i, m := range t.marks {
		out[i] = m.Label
	}
	return out
}

// String renders the timeline as "t=1s a → t=2s b".
func (t *Timeline) String() string {
	parts := make([]string, len(t.marks))
	for i, m := range t.marks {
		parts[i] = fmt.Sprintf("t=%v %s", m.At, m.Label)
	}
	return strings.Join(parts, " → ")
}

// TenantCounters is a two-level counter set keyed by tenant then
// counter name — per-tenant goodput, shed and failure accounting for
// the overload experiment.
type TenantCounters struct {
	m map[string]map[string]int64
}

// NewTenantCounters returns an empty set.
func NewTenantCounters() *TenantCounters {
	return &TenantCounters{m: make(map[string]map[string]int64)}
}

// Add adds delta to tenant's counter name.
func (c *TenantCounters) Add(tenant, name string, delta int64) {
	t := c.m[tenant]
	if t == nil {
		t = make(map[string]int64)
		c.m[tenant] = t
	}
	t[name] += delta
}

// Of reads one tenant counter.
func (c *TenantCounters) Of(tenant, name string) int64 { return c.m[tenant][name] }

// Tenants lists the tenants seen, sorted.
func (c *TenantCounters) Tenants() []string {
	out := make([]string, 0, len(c.m))
	for t := range c.m {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
