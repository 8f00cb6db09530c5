// Package trace is a deterministic, sim-clock-native span subsystem
// for the invocation critical path. A Span covers one phase of one
// invocation (queue wait, advice lookup, cache probe, RSDS fetch,
// reclaim, ...) with start/end timestamps taken from the virtual clock
// of internal/sim — never the wall clock — so traces recorded at a
// fixed seed are reproducible artifacts, not observations.
//
// The subsystem is built to cost nothing when off: every entry point
// is nil-safe (a nil *Tracer and a zero Span fast-path out without
// allocating), so instrumented packages hold a plain *Tracer field and
// call through it unconditionally. Recording is lock-free: spans land
// in sharded bounded buffers via an atomic cursor; when a shard is
// full the span is counted in Drops() and discarded (drop-on-full, not
// overwrite, so the drop counter is exact and no slot is ever written
// twice).
//
// Determinism contract: virtual timestamps, span names, nodes,
// attributes and the parent structure are pure functions of the seed,
// and so are the raw span IDs: each Tracer numbers its own spans, and
// one simulation process runs at a time per Env, so Begin calls come
// in the same order on every run and on any number of Ps. Exporters
// still canonicalize (see Canonicalize) before emitting bytes, so that
// an export depends on what was traced and not on the order in which
// spans that start together were opened.
package trace

import (
	"sync/atomic" //lint:allow rawgo the recorder's cursors are shared across goroutines: TestRecorderStress records from 64 of them

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// TraceID groups the spans of one invocation (or 0 for control-plane
// spans with no owning invocation: retrains, write-backs, reclaims).
type TraceID uint64

// SpanID identifies one span within a Tracer. IDs are allocated in
// Begin order, so a parent's ID is always smaller than its children's.
type SpanID uint64

// Ref names a span so a child created in another package can link to
// it. The zero Ref means "no parent" and is what disabled tracers
// produce, so it can be threaded through request structs for free.
type Ref struct {
	Trace TraceID
	Span  SpanID
}

// maxAttrs bounds per-span attributes; the array lives inline in Span
// so attaching attributes never allocates. Excess attributes are
// silently dropped (instrumentation sets at most a handful).
const maxAttrs = 6

// Attr is one typed span attribute: a Str value when Str != "" (and
// Num is ignored), a Num value otherwise.
type Attr struct {
	Key string
	Num int64
	Str string
}

// Span is one timed phase. It is a value type: Begin returns it on the
// stack, the caller annotates it, and End copies it into the buffer —
// no heap allocation on the recording path. The zero Span (ID == 0) is
// inert: setters and End ignore it, which is how the disabled path
// costs only the zeroing of the struct.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Node   simnet.NodeID
	Start  sim.Time
	End    sim.Time
	nattrs int
	attrs  [maxAttrs]Attr
}

// Ref returns the span's identity for linking children; zero for the
// zero span (and a nil receiver), so it can be stored unconditionally.
func (sp *Span) Ref() Ref {
	if sp == nil || sp.ID == 0 {
		return Ref{}
	}
	return Ref{Trace: sp.Trace, Span: sp.ID}
}

// SetNum attaches an integer attribute. No-op on the zero span.
func (sp *Span) SetNum(key string, v int64) {
	if sp == nil || sp.ID == 0 || sp.nattrs >= maxAttrs {
		return
	}
	sp.attrs[sp.nattrs] = Attr{Key: key, Num: v}
	sp.nattrs++
}

// SetStr attaches a string attribute. No-op on the zero span.
func (sp *Span) SetStr(key, v string) {
	if sp == nil || sp.ID == 0 || sp.nattrs >= maxAttrs {
		return
	}
	sp.attrs[sp.nattrs] = Attr{Key: key, Str: v}
	sp.nattrs++
}

// Attrs returns the attached attributes in insertion order.
func (sp *Span) Attrs() []Attr { return sp.attrs[:sp.nattrs] }

// Duration is the span's virtual-time extent.
func (sp *Span) Duration() sim.Time { return sp.End - sp.Start }

// Config sizes a Tracer.
type Config struct {
	// Seed feeds trace-ID derivation; use the simulation seed so trace
	// IDs are part of the deterministic artifact.
	Seed int64
	// Shards is the number of independent buffers (default 8). More
	// shards means less cursor contention under concurrent recording.
	Shards int
	// ShardCap is the span capacity of each shard (default 4096).
	// Total bounded memory is Shards * ShardCap * sizeof(Span).
	ShardCap int
}

const (
	defaultShards   = 8
	defaultShardCap = 4096
)

// shard is one bounded append-only buffer. cur counts attempted
// appends; slots beyond len(buf) were dropped. The pad keeps hot
// cursors of adjacent shards off one cache line.
type shard struct {
	cur atomic.Int64
	_   [56]byte
	buf []Span
}

// Tracer records spans against a simulation clock. A nil *Tracer is a
// valid, permanently-disabled tracer: all methods fast-path out.
type Tracer struct {
	env    *sim.Env
	seed   int64
	nextID atomic.Uint64
	drops  atomic.Int64
	shards []shard
}

// New creates an enabled tracer reading time from env.
func New(env *sim.Env, cfg Config) *Tracer {
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.ShardCap <= 0 {
		cfg.ShardCap = defaultShardCap
	}
	t := &Tracer{env: env, seed: cfg.Seed, shards: make([]shard, cfg.Shards)}
	for i := range t.shards {
		t.shards[i].buf = make([]Span, cfg.ShardCap)
	}
	return t
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// InvocationTrace derives the TraceID for the index-th invocation
// (1-based, from the platform's invocation counter) from the seed.
// Zero on a disabled tracer.
func (t *Tracer) InvocationTrace(index int64) TraceID {
	if t == nil {
		return 0
	}
	return DeriveTraceID(t.seed, index)
}

// DeriveTraceID mixes (seed, index) through splitmix64 into a non-zero
// trace ID. Exported so tests can predict IDs.
func DeriveTraceID(seed, index int64) TraceID {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return TraceID(x)
}

// Begin opens a span. On a disabled tracer it returns the inert zero
// Span without reading the clock. parent 0 makes a root span.
func (t *Tracer) Begin(tr TraceID, parent SpanID, name string, node simnet.NodeID) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		Trace:  tr,
		ID:     SpanID(t.nextID.Add(1)),
		Parent: parent,
		Name:   name,
		Node:   node,
		Start:  t.env.Now(),
	}
}

// End stamps the span's end time and records it. No-op for the zero
// span or a disabled tracer.
func (t *Tracer) End(sp *Span) {
	if t == nil || sp == nil || sp.ID == 0 {
		return
	}
	sp.End = t.env.Now()
	t.record(*sp)
}

// record claims a slot by atomic cursor; a full shard counts a drop.
// Each successful claim maps to a distinct slot, so concurrent writers
// never touch the same memory.
func (t *Tracer) record(sp Span) {
	sh := &t.shards[uint64(sp.ID)%uint64(len(t.shards))]
	i := sh.cur.Add(1) - 1
	if i >= int64(len(sh.buf)) {
		t.drops.Add(1)
		return
	}
	sh.buf[i] = sp
}

// Drops returns the number of spans discarded because their shard was
// full. Zero on a disabled tracer.
func (t *Tracer) Drops() int64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Len returns the number of recorded (kept) spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		c := int(t.shards[i].cur.Load())
		if c > len(t.shards[i].buf) {
			c = len(t.shards[i].buf)
		}
		n += c
	}
	return n
}

// Snapshot copies out all recorded spans sorted by (Start, ID). Call
// it after the traffic being traced has quiesced: recording is
// lock-free, so a snapshot taken mid-flight may miss spans whose slot
// claim has not yet been followed by the write.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.Len())
	for i := range t.shards {
		c := int(t.shards[i].cur.Load())
		if c > len(t.shards[i].buf) {
			c = len(t.shards[i].buf)
		}
		out = append(out, t.shards[i].buf[:c]...)
	}
	sortSpans(out)
	return out
}

// Reset discards all recorded spans and the drop count, keeping the
// buffers. Span IDs keep climbing, so spans recorded after a Reset
// never collide with earlier snapshots.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		t.shards[i].cur.Store(0)
	}
	t.drops.Store(0)
}
