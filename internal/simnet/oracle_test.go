package simnet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ofc/internal/sim"
)

// md1Waits drives n arrivals, a seeded Poisson stream (an After chain)
// at rate rho/s, into one FIFO resource through start, and returns each
// arrival's queueing wait: its completion instant less its arrival and
// the fixed cost of an unqueued operation. start must call its argument
// once the operation is over.
func md1Waits(t *testing.T, seed int64, n int, s, fixed time.Duration, rho float64, start func(net *Network, a, b *Node, done func())) []float64 {
	env := sim.NewEnv(seed)
	net, a, b := testNet(env)
	rng := env.NewRand()
	meanGap := float64(s) / rho
	waits := make([]float64, 0, n)
	arrived := 0
	var arrive func()
	arrive = func() {
		t0 := env.Now()
		start(net, a, b, func() { waits = append(waits, float64(env.Now()-t0-fixed)) })
		if arrived++; arrived < n {
			env.After(time.Duration(rng.ExpFloat64()*meanGap), arrive)
		}
	}
	env.After(time.Duration(rng.ExpFloat64()*meanGap), arrive)
	env.Run()
	if len(waits) != n {
		t.Fatalf("%d of %d operations completed", len(waits), n)
	}
	return waits
}

// batchMeans returns the mean of xs and its standard error estimated
// from k equal batches, whose means are nearly independent when a batch
// is much longer than the queue's relaxation time.
func batchMeans(xs []float64, k int) (mean, se float64) {
	size := len(xs) / k
	means := make([]float64, k)
	for i := range means {
		for _, x := range xs[i*size : (i+1)*size] {
			means[i] += x
		}
		means[i] /= float64(size)
		mean += means[i]
	}
	mean /= float64(k)
	var ss float64
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	return mean, math.Sqrt(ss / float64(k-1) / float64(k))
}

// TestBookingMatchesMD1: equal-size operations arriving as a Poisson
// stream at one NIC or one disk are the customers of an M/D/1 queue,
// because a booking is Lindley's recursion (see book). So their mean
// wait must be Pollaczek–Khinchine's ρS/(2(1−ρ)) for service time S.
// A transfer from a to b queues only at a's transmit NIC: it reaches
// b's receive NIC at least S after the one before it. Its wait is
// done − t0 − 2S − latency. A disk write's is done − t0 − S. The
// tolerance is four batch-means standard errors of the measured mean:
// a miss is a finding about the fabric model, not a bound to widen.
func TestBookingMatchesMD1(t *testing.T) {
	const (
		arrivals = 200_000
		batches  = 40
		size     = 125_000 // 100 µs on the wire, 328 µs on the disk
	)
	tx := New(sim.NewEnv(1)).txTime(size)
	bytes := float64(size)
	disk := diskWriteLatency + time.Duration(bytes/diskWriteBandwidth*float64(time.Second))
	for _, c := range []struct {
		name     string
		s, fixed time.Duration
		start    func(net *Network, a, b *Node, done func())
	}{
		{"transfer", tx, 2*tx + linkLatency, func(net *Network, a, b *Node, done func()) {
			net.TransferThen(a.ID, b.ID, size, func(err error) {
				if err != nil {
					t.Fatalf("transfer failed: %v", err)
				}
				done()
			})
		}},
		{"disk write", disk, disk, func(_ *Network, a, _ *Node, done func()) {
			a.DiskWriteThen(size, done)
		}},
	} {
		for i, rho := range []float64{0.5, 0.8} {
			t.Run(fmt.Sprintf("%s/rho=%.1f", c.name, rho), func(t *testing.T) {
				waits := md1Waits(t, int64(1+i), arrivals, c.s, c.fixed, rho, c.start)
				got, se := batchMeans(waits, batches)
				want := rho * float64(c.s) / (2 * (1 - rho))
				if tol := 4 * se; math.Abs(got-want) > tol {
					t.Errorf("mean wait %.0f ns, M/D/1 says %.0f ns; tolerance %.0f ns (4 standard errors)", got, want, tol)
				}
			})
		}
	}
}
