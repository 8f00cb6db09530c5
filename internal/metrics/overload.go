package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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
	mu    sync.Mutex
	marks []Mark
}

// Mark appends one event.
func (t *Timeline) Mark(at time.Duration, label string) {
	t.mu.Lock()
	t.marks = append(t.marks, Mark{At: at, Label: label})
	t.mu.Unlock()
}

// Marks returns a copy of the events in append order.
func (t *Timeline) Marks() []Mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Mark, len(t.marks))
	copy(out, t.marks)
	return out
}

// Labels returns just the event labels, in order.
func (t *Timeline) Labels() []string {
	marks := t.Marks()
	out := make([]string, len(marks))
	for i, m := range marks {
		out[i] = m.Label
	}
	return out
}

// String renders the timeline as "t=1s a → t=2s b".
func (t *Timeline) String() string {
	marks := t.Marks()
	parts := make([]string, len(marks))
	for i, m := range marks {
		parts[i] = fmt.Sprintf("t=%v %s", m.At, m.Label)
	}
	return strings.Join(parts, " → ")
}

// TenantCounters is a two-level counter set keyed by tenant then
// counter name — per-tenant goodput, shed and failure accounting for
// the overload experiment.
type TenantCounters struct {
	mu sync.Mutex
	m  map[string]map[string]int64
}

// NewTenantCounters returns an empty set.
func NewTenantCounters() *TenantCounters {
	return &TenantCounters{m: make(map[string]map[string]int64)}
}

// Add adds delta to tenant's counter name.
func (c *TenantCounters) Add(tenant, name string, delta int64) {
	c.mu.Lock()
	t := c.m[tenant]
	if t == nil {
		t = make(map[string]int64)
		c.m[tenant] = t
	}
	t[name] += delta
	c.mu.Unlock()
}

// Of reads one tenant counter.
func (c *TenantCounters) Of(tenant, name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[tenant][name]
}

// Tenants lists the tenants seen, sorted.
func (c *TenantCounters) Tenants() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for t := range c.m {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
