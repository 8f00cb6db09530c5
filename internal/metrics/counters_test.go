package metrics

import (
	"slices"
	"testing"
	"time"
)

// TestTimeline checks that marks keep their append order, whatever
// their timestamps, and that Labels and String render that order.
func TestTimeline(t *testing.T) {
	for _, c := range []struct {
		name   string
		marks  []Mark
		labels []string
		str    string
	}{
		{"empty", nil, []string{}, ""},
		{"one", []Mark{{time.Second, "Normal->Brownout"}}, []string{"Normal->Brownout"}, "t=1s Normal->Brownout"},
		{
			"append order, not time order",
			[]Mark{{2 * time.Second, "b"}, {time.Second, "a"}, {3 * time.Second, "c"}},
			[]string{"b", "a", "c"},
			"t=2s b → t=1s a → t=3s c",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tl Timeline
			for _, m := range c.marks {
				tl.Mark(m.At, m.Label)
			}
			if got := tl.Labels(); !slices.Equal(got, c.labels) {
				t.Errorf("Labels() = %q, want %q", got, c.labels)
			}
			if got := tl.String(); got != c.str {
				t.Errorf("String() = %q, want %q", got, c.str)
			}
		})
	}
}

// TestTenantCounters checks Add/Of per tenant and counter, zero for a
// tenant or counter never added to, and Tenants in sorted order.
func TestTenantCounters(t *testing.T) {
	type add struct {
		tenant, name string
		delta        int64
	}
	type read struct {
		tenant, name string
		want         int64
	}
	for _, c := range []struct {
		name    string
		adds    []add
		reads   []read
		tenants []string
	}{
		{"empty", nil, []read{{"t0", "good", 0}}, []string{}},
		{
			"accumulates per tenant and name",
			[]add{{"t1", "good", 1}, {"t1", "good", 2}, {"t1", "shed", 1}, {"t0", "good", 5}},
			[]read{{"t1", "good", 3}, {"t1", "shed", 1}, {"t0", "good", 5}, {"t0", "shed", 0}, {"t9", "good", 0}},
			[]string{"t0", "t1"},
		},
		{
			"sorted, not insertion order",
			[]add{{"zeta", "good", 1}, {"alpha", "failed", 1}, {"mid", "good", -1}},
			[]read{{"mid", "good", -1}, {"alpha", "failed", 1}},
			[]string{"alpha", "mid", "zeta"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := NewTenantCounters()
			for _, a := range c.adds {
				tc.Add(a.tenant, a.name, a.delta)
			}
			for _, r := range c.reads {
				if got := tc.Of(r.tenant, r.name); got != r.want {
					t.Errorf("Of(%q, %q) = %d, want %d", r.tenant, r.name, got, r.want)
				}
			}
			if got := tc.Tenants(); !slices.Equal(got, c.tenants) {
				t.Errorf("Tenants() = %q, want %q", got, c.tenants)
			}
		})
	}
}

// TestMemoCounters checks that Snapshot reports each kind of event
// separately.
func TestMemoCounters(t *testing.T) {
	for _, c := range []struct {
		name                 string
		hits, misses, invals int
	}{
		{"zero", 0, 0, 0},
		{"hits only", 3, 0, 0},
		{"mixed", 5, 2, 1},
		{"invalidations only", 0, 0, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			var m MemoCounters
			for i := 0; i < c.misses; i++ {
				m.Miss()
			}
			for i := 0; i < c.hits; i++ {
				m.Hit()
			}
			for i := 0; i < c.invals; i++ {
				m.Invalidation()
			}
			h, mi, inv := m.Snapshot()
			if h != int64(c.hits) || mi != int64(c.misses) || inv != int64(c.invals) {
				t.Errorf("Snapshot() = (%d, %d, %d), want (%d, %d, %d)", h, mi, inv, c.hits, c.misses, c.invals)
			}
		})
	}
}
