package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// arrival is one request the load generator issues. The whole schedule
// is drawn from the seed before the system under test exists, so the
// system receives only generated requests and a slow platform cannot
// slow the generator down (open loop).
type arrival struct {
	// Due is the send time, as an offset from the schedule origin (the
	// virtual instant staging ends).
	Due time.Duration
	// Kind selects the request type inside a workload (0 is its main
	// invocation; write-pipeline adds the external reader and writer).
	Kind int
	// Tenant indexes the workload's tenants.
	Tenant int
	// Keys index the tenant's (or the shared) object pool.
	Keys []int
	// Arg is the function-specific argument value, when the function
	// has one.
	Arg float64
}

// schedule is the arrival list sorted by Due.
type schedule []arrival

// encode serializes the schedule; two schedules are the same inputs
// exactly when their encodings are equal.
func (s schedule) encode() []byte {
	var b bytes.Buffer
	put := func(v uint64) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		b.Write(w[:])
	}
	for _, a := range s {
		put(uint64(a.Due))
		put(uint64(a.Kind))
		put(uint64(a.Tenant))
		put(uint64(len(a.Keys)))
		for _, k := range a.Keys {
			put(uint64(k))
		}
		put(math.Float64bits(a.Arg))
	}
	return b.Bytes()
}

// sorted orders arrivals by due time; ties keep generation order, so
// the schedule is a pure function of the seed.
func (s schedule) sorted() schedule {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Due < s[j].Due })
	return s
}

// poisson emits the arrival times of a Poisson process of the given
// mean interval over [0, horizon).
func poisson(rng *rand.Rand, mean, horizon time.Duration, emit func(due time.Duration)) {
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		if at >= horizon {
			return
		}
		emit(at)
	}
}

// poissonBlocks emits the arrival times of a Poisson process conditioned
// on its count: every block of perBlock mean intervals holds exactly
// perBlock arrivals (a last, shorter block its share of them), placed
// uniformly, which is what a Poisson process looks like once the number
// of its arrivals is known. The gaps stay exponential-like, but two seeds
// no longer differ in how many requests a tenant sends, so a metric that
// follows the mix of tenants does not move with the seed.
func poissonBlocks(rng *rand.Rand, mean, horizon time.Duration, perBlock int, emit func(due time.Duration)) {
	block := time.Duration(perBlock) * mean
	for start := time.Duration(0); start < horizon; start += block {
		length := min(block, horizon-start)
		n := int(math.Round(float64(length) / float64(mean)))
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = start + time.Duration(rng.Float64()*float64(length))
		}
		slices.Sort(dues)
		for _, due := range dues {
			emit(due)
		}
	}
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s. Unlike
// rand.Zipf it accepts s <= 1, which cold-miss needs.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
