package faas

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// OpenWhisk records every invocation as an "activation" queryable
// later (`wsk activation list/get`). The platform keeps a bounded
// in-memory activation log with the same shape.

// Activation is the queryable record of one invocation.
type Activation struct {
	ID       string
	Function string
	Start    time.Duration
	End      time.Duration
	Duration time.Duration
	Node     int
	Cold     bool
	Retried  bool
	Rescued  bool
	Error    string
	// Phase breakdown (an OFC addition to the record).
	Extract, Transform, Load time.Duration
	PeakMemMB                int64
	SandboxMemMB             int64
}

// activationLog is a bounded ring of activations. Records are
// numbered from 1 in arrival order; number n lives in slot
// (n-1) mod cap until number n+cap overwrites it, and its ID is derived
// from n when it is read, not stored or formatted on the invoke path.
type activationLog struct {
	next uint64 // number of the newest record; 0 when empty
	ring []Activation
	cap  int
}

const defaultActivationCap = 4096

func newActivationLog(capacity int) *activationLog {
	if capacity <= 0 {
		capacity = defaultActivationCap
	}
	return &activationLog{cap: capacity}
}

func activationID(n uint64) string { return fmt.Sprintf("act-%08d", n) }

// record files an activation, overwriting the oldest past capacity.
func (l *activationLog) record(a Activation) {
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, a)
	} else {
		l.ring[l.next%uint64(l.cap)] = a
	}
	l.next++
}

// at returns record number n, which must be retained.
func (l *activationLog) at(n uint64) Activation {
	a := l.ring[(n-1)%uint64(l.cap)]
	a.ID = activationID(n)
	return a
}

// list returns up to n most recent activations, newest first.
func (l *activationLog) list(n int) []Activation {
	if n <= 0 || n > len(l.ring) {
		n = len(l.ring)
	}
	out := make([]Activation, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.at(l.next-uint64(i)))
	}
	return out
}

// get finds a retained activation by id.
func (l *activationLog) get(id string) (Activation, bool) {
	digits, ok := strings.CutPrefix(id, "act-")
	if !ok {
		return Activation{}, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || activationID(n) != id {
		return Activation{}, false
	}
	if n == 0 || n > l.next || l.next-n >= uint64(len(l.ring)) {
		return Activation{}, false
	}
	return l.at(n), true
}

// recordActivation files the result of a completed invocation.
func (p *Platform) recordActivation(req *Request, res *Result) {
	a := Activation{
		Function: req.Function.ID(),
		Start:    time.Duration(res.Start),
		End:      time.Duration(res.End),
		Duration: res.Duration(),
		Node:     int(res.Node),
		Cold:     res.ColdStart,
		Retried:  res.Retried,
		Rescued:  res.Rescued,
		Extract:  res.Extract, Transform: res.Transform, Load: res.Load,
		PeakMemMB:    res.PeakMem >> 20,
		SandboxMemMB: res.SandboxMem >> 20,
	}
	if res.Err != nil {
		a.Error = res.Err.Error()
	}
	p.activations.record(a)
}

// Activations returns up to n most recent activation records, newest
// first (n ≤ 0 returns all retained).
func (p *Platform) Activations(n int) []Activation {
	return p.activations.list(n)
}

// Activation looks one record up by id.
func (p *Platform) Activation(id string) (Activation, bool) {
	return p.activations.get(id)
}
