package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ofc/internal/sim"
)

// sortSpans orders by (Start, ID): virtual time first, allocation
// order as the tiebreak.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// Canonicalize rewrites raw span IDs into a deterministic ID space.
//
// A fixed-seed trace, raw IDs included, is a pure function of the
// seed, but the raw IDs also record the order in which spans were
// opened: a change that only reorders two Begin calls at one virtual
// instant renumbers everything after them. Canonicalize takes that
// order out: it rebuilds the span forest, orders siblings by (Start,
// Name, subtree fingerprint), and renumbers in DFS pre-order, rewriting
// parent links to match. Two siblings with equal fingerprints have
// byte-identical subtrees, so any residual tie cannot affect the output
// bytes. The golden trace and every trace hash are in this form.
//
// The returned slice is in DFS pre-order (roots by start time); a
// parent always precedes — and has a smaller ID than — its children.
func Canonicalize(spans []Span) []Span {
	n := len(spans)
	byID := make(map[SpanID]int, n)
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make([][]int, n)
	roots := make([]int, 0, n)
	for i := range spans {
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != 0 && p != i {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}

	// Subtree fingerprints, bottom-up. The forest is acyclic for any
	// well-formed trace (a parent's ID is allocated before its
	// children's); the state array keeps this terminating even on
	// malformed input.
	fp := make([]uint64, n)
	state := make([]int8, n) // 0 unvisited, 1 in progress, 2 done
	var fingerprint func(i int) uint64
	fingerprint = func(i int) uint64 {
		switch state[i] {
		case 2:
			return fp[i]
		case 1:
			return 0 // cycle: malformed input, degrade gracefully
		}
		state[i] = 1
		sp := &spans[i]
		h := uint64(fnvOffset)
		h = fnvUint(h, uint64(sp.Start))
		h = fnvUint(h, uint64(sp.End))
		h = fnvUint(h, uint64(sp.Trace))
		h = fnvStr(h, sp.Name)
		h = fnvUint(h, uint64(sp.Node))
		for _, a := range sp.Attrs() {
			h = fnvStr(h, a.Key)
			h = fnvUint(h, uint64(a.Num))
			h = fnvStr(h, a.Str)
		}
		kids := make([]uint64, 0, len(children[i]))
		for _, c := range children[i] {
			kids = append(kids, fingerprint(c))
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a] < kids[b] })
		for _, k := range kids {
			h = fnvUint(h, k)
		}
		fp[i] = h
		state[i] = 2
		return h
	}
	for i := range spans {
		fingerprint(i)
	}

	order := func(list []int) {
		sort.Slice(list, func(a, b int) bool {
			x, y := &spans[list[a]], &spans[list[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.Name != y.Name {
				return x.Name < y.Name
			}
			if fp[list[a]] != fp[list[b]] {
				return fp[list[a]] < fp[list[b]]
			}
			return x.ID < y.ID // equal fingerprints: subtrees identical
		})
	}
	order(roots)
	for i := range children {
		order(children[i])
	}

	out := make([]Span, 0, n)
	var next SpanID
	var emit func(i int, parent SpanID)
	emit = func(i int, parent SpanID) {
		if state[i] == 3 {
			return // malformed self-parent guard
		}
		state[i] = 3
		next++
		sp := spans[i]
		sp.ID = next
		sp.Parent = parent
		out = append(out, sp)
		id := next
		for _, c := range children[i] {
			emit(c, id)
		}
	}
	for _, r := range roots {
		emit(r, 0)
	}
	return out
}

const fnvOffset = 0xcbf29ce484222325

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h ^= 0xff // terminator so ("ab","c") != ("a","bc")
	h *= 0x100000001b3
	return h
}

// ExportChrome writes spans as Chrome trace_event JSON (load it at
// chrome://tracing or https://ui.perfetto.dev). Spans are canonicalized
// first, so the bytes are a deterministic function of the simulation
// seed. Timestamps are virtual microseconds; pid is the node, tid the
// trace ID in hex ("ctl" spans carry trace 0).
func ExportChrome(w io.Writer, spans []Span) error {
	canon := Canonicalize(spans)
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i := range canon {
		sp := &canon[i]
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":\"ofc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":\"%016x\",\"args\":{\"span\":%d,\"parent\":%d",
			strconv.Quote(sp.Name),
			float64(sp.Start)/1e3, float64(sp.Duration())/1e3,
			int(sp.Node), uint64(sp.Trace), sp.ID, sp.Parent)
		for _, a := range sp.Attrs() {
			if a.Str != "" {
				fmt.Fprintf(bw, ",%s:%s", strconv.Quote(a.Key), strconv.Quote(a.Str))
			} else {
				fmt.Fprintf(bw, ",%s:%d", strconv.Quote(a.Key), a.Num)
			}
		}
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Validate checks span well-formedness:
//
//   - IDs are unique and non-zero, and Start <= End;
//   - a non-zero parent exists, belongs to the same trace, and was
//     allocated before the child (parent ID < child ID — which proves
//     the parent graph acyclic, since every edge decreases the ID);
//   - a child's interval nests inside its parent's in virtual time;
//   - the durations of a span's direct children sum to at most the
//     parent's duration (children are sequential or properly nested;
//     phases cannot claim more time than the invocation they
//     decompose).
//
// It accepts both raw Snapshot output and Canonicalize output: both
// allocate parents before children.
func Validate(spans []Span) error {
	byID := make(map[SpanID]int, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.ID == 0 {
			return fmt.Errorf("trace: span %d (%s) has zero ID", i, sp.Name)
		}
		if j, dup := byID[sp.ID]; dup {
			return fmt.Errorf("trace: duplicate span ID %d (%s and %s)", sp.ID, spans[j].Name, sp.Name)
		}
		byID[sp.ID] = i
		if sp.End < sp.Start {
			return fmt.Errorf("trace: span %d (%s) ends %v before it starts %v", sp.ID, sp.Name, sp.End, sp.Start)
		}
	}
	childSum := make([]sim.Time, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.Parent == 0 {
			continue
		}
		j, ok := byID[sp.Parent]
		if !ok {
			return fmt.Errorf("trace: span %d (%s) has unknown parent %d", sp.ID, sp.Name, sp.Parent)
		}
		par := &spans[j]
		if par.Trace != sp.Trace {
			return fmt.Errorf("trace: span %d (%s) crosses traces: parent %d is %016x, child is %016x",
				sp.ID, sp.Name, par.ID, uint64(par.Trace), uint64(sp.Trace))
		}
		if par.ID >= sp.ID {
			return fmt.Errorf("trace: span %d (%s) has parent %d allocated after it (cycle?)", sp.ID, sp.Name, par.ID)
		}
		if sp.Start < par.Start || sp.End > par.End {
			return fmt.Errorf("trace: span %d (%s) [%v,%v] escapes parent %d (%s) [%v,%v]",
				sp.ID, sp.Name, sp.Start, sp.End, par.ID, par.Name, par.Start, par.End)
		}
		childSum[j] += sp.Duration()
	}
	for i := range spans {
		if childSum[i] > spans[i].Duration() {
			return fmt.Errorf("trace: children of span %d (%s) sum to %v > parent duration %v",
				spans[i].ID, spans[i].Name, childSum[i], spans[i].Duration())
		}
	}
	return nil
}
