package trace

import (
	"testing"

	"ofc/internal/sim"
)

// TestDisabledPathZeroAlloc pins the contract every instrumented hot
// path relies on: with tracing off (nil tracer), Begin/SetNum/SetStr/
// End/Ref allocate nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(tr.InvocationTrace(7), 0, "invoke", 1)
		sp.SetNum("hit", 1)
		sp.SetStr("fn", "t/blur")
		child := tr.Begin(sp.Ref().Trace, sp.Ref().Span, "cache.get", 2)
		tr.End(&child)
		tr.End(&sp)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledPathZeroAlloc: recording itself is also allocation-free —
// spans are values copied into preallocated shard slots.
func TestEnabledPathZeroAlloc(t *testing.T) {
	tr := New(sim.NewEnv(1), Config{Seed: 1, Shards: 1, ShardCap: 8192})
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(tr.InvocationTrace(7), 0, "invoke", 1)
		sp.SetNum("hit", 1)
		tr.End(&sp)
	})
	if allocs != 0 {
		t.Fatalf("enabled record path allocates %.1f/op, want 0", allocs)
	}
}

func TestDeriveTraceID(t *testing.T) {
	seen := make(map[TraceID]bool)
	for seed := int64(0); seed < 4; seed++ {
		for idx := int64(0); idx < 1000; idx++ {
			id := DeriveTraceID(seed, idx)
			if id == 0 {
				t.Fatalf("DeriveTraceID(%d,%d) = 0", seed, idx)
			}
			if seen[id] {
				t.Fatalf("DeriveTraceID(%d,%d) collides", seed, idx)
			}
			seen[id] = true
		}
	}
	if DeriveTraceID(5, 9) != DeriveTraceID(5, 9) {
		t.Fatal("DeriveTraceID not a pure function")
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.InvocationTrace(3) != 0 {
		t.Fatal("nil tracer derives a trace ID")
	}
	sp := tr.Begin(1, 0, "x", 0)
	if sp.ID != 0 {
		t.Fatal("nil tracer began a live span")
	}
	sp.SetNum("k", 1)
	sp.SetStr("k", "v")
	if len(sp.Attrs()) != 0 {
		t.Fatal("zero span accepted attributes")
	}
	if sp.Ref() != (Ref{}) {
		t.Fatal("zero span has a non-zero ref")
	}
	tr.End(&sp)
	if tr.Len() != 0 || tr.Drops() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr.Reset() // must not panic
}

func TestSpanAttrsBounded(t *testing.T) {
	tr := New(sim.NewEnv(1), Config{})
	sp := tr.Begin(1, 0, "x", 0)
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetNum("k", int64(i))
	}
	if got := len(sp.Attrs()); got != maxAttrs {
		t.Fatalf("attrs grew to %d, want capped at %d", got, maxAttrs)
	}
}

// TestDropCounterAccuracy: a fresh tracer is empty; it keeps exactly
// the first Shards × ShardCap spans and counts every discarded one.
func TestDropCounterAccuracy(t *testing.T) {
	const shards, shardCap, total = 8, 128, 1500
	tr := New(sim.NewEnv(1), Config{Seed: 1, Shards: shards, ShardCap: shardCap})
	if snap := tr.Snapshot(); tr.Len() != 0 || tr.Drops() != 0 || snap == nil || len(snap) != 0 {
		t.Fatalf("fresh tracer: Len %d, Drops %d, Snapshot %v; want empty and a non-nil empty snapshot", tr.Len(), tr.Drops(), snap)
	}
	for i := 0; i < total; i++ {
		sp := tr.Begin(1, 0, "x", 0)
		tr.End(&sp)
	}
	const kept = shards * shardCap
	if got := tr.Len(); got != kept {
		t.Fatalf("Len = %d, want %d", got, kept)
	}
	if got := tr.Drops(); got != total-kept {
		t.Fatalf("Drops = %d, want %d", got, total-kept)
	}
	snap := tr.Snapshot()
	if len(snap) != kept {
		t.Fatalf("Snapshot holds %d spans, want %d", len(snap), kept)
	}
	for i := range snap {
		if snap[i].ID != SpanID(i+1) {
			t.Fatalf("snapshot[%d] is span %d, want the first %d spans in order", i, snap[i].ID, kept)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Drops() != 0 {
		t.Fatal("Reset did not clear buffers")
	}
	sp := tr.Begin(1, 0, "y", 0)
	tr.End(&sp)
	if tr.Len() != 1 {
		t.Fatal("tracer unusable after Reset")
	}
	// Recording after a Reset reuses the buffer, full or not.
	tr.Reset()
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < total; i++ {
			sp := tr.Begin(1, 0, "z", 0)
			tr.End(&sp)
		}
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("recording after Reset allocates %.1f per pass, want 0", allocs)
	}
}
