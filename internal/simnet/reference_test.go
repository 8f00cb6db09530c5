package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"ofc/internal/sim"
)

// fifoLock is a one-permit FIFO semaphore built on sim.Future: an
// acquirer that finds it held, or finds others waiting, parks until a
// release hands the lock to it. refNet models each NIC direction and
// each disk as one.
type fifoLock struct {
	env   *sim.Env
	held  bool
	queue []*sim.Future[struct{}]
}

func (l *fifoLock) acquire() {
	if !l.held && len(l.queue) == 0 {
		l.held = true
		return
	}
	f := sim.NewFuture[struct{}](l.env)
	l.queue = append(l.queue, f)
	f.Wait()
}

func (l *fifoLock) release() {
	if len(l.queue) == 0 {
		l.held = false
		return
	}
	f := l.queue[0]
	l.queue = l.queue[1:]
	f.Set(struct{}{}) // the lock passes to f's waiter, still held
}

// refNet is the fabric modelled as processes queueing on FIFO locks: a
// transfer acquires the sender's transmit NIC, sleeps its serialization,
// releases it, sleeps the propagation, then does the same on the
// receiver's NIC; a disk operation holds the disk for its duration. The
// embedded Network supplies the constants and the fault state only.
type refNet struct {
	*Network
	tx, rx, disk []*fifoLock
}

func newRefNet(n *Network, nodes int) *refNet {
	r := &refNet{Network: n}
	for i := 0; i < nodes; i++ {
		r.tx = append(r.tx, &fifoLock{env: n.env})
		r.rx = append(r.rx, &fifoLock{env: n.env})
		r.disk = append(r.disk, &fifoLock{env: n.env})
	}
	return r
}

func (r *refNet) transfer(from, to NodeID, size int64) {
	env := r.env
	lf := r.lookFaults(from, to)
	tx := r.txTime(size)
	if lf.bwFactor > 0 && lf.bwFactor < 1 {
		tx = time.Duration(float64(tx) / lf.bwFactor)
	}
	lat := time.Duration(float64(linkLatency) * lf.latFactor)
	send := func() {
		r.tx[from].acquire()
		env.Sleep(tx)
		r.tx[from].release()
	}
	send()
	env.Sleep(lat)
	for i := 0; i < lf.retransmit; i++ {
		env.Sleep(lat)
		send()
		env.Sleep(lat)
	}
	r.rx[to].acquire()
	env.Sleep(tx)
	r.rx[to].release()
}

func (r *refNet) useDisk(id NodeID, base time.Duration) {
	slow := r.diskFactor(id)
	r.disk[id].acquire()
	r.env.Sleep(time.Duration(float64(base) * slow))
	r.disk[id].release()
}

// fabricOp is one operation of a schedule: a chain of 1–3 transfers
// along path, then, if disk is non-zero, a disk read (1) or write (2)
// of diskSize bytes on the last node of the path.
type fabricOp struct {
	at       time.Duration
	path     []NodeID
	size     int64
	disk     int
	diskSize int64
}

// diskTime is how long o's disk operation holds a healthy disk.
func (o fabricOp) diskTime() time.Duration {
	if o.disk == 1 {
		return diskReadLatency + time.Duration(float64(o.diskSize)/diskReadBandwidth*float64(time.Second))
	}
	return diskWriteLatency + time.Duration(float64(o.diskSize)/diskWriteBandwidth*float64(time.Second))
}

const refNodes = 4

// fabricSchedule draws ops operations from rng. Continuous schedules
// draw start instants to the nanosecond and sizes to the byte, so no
// two events of the run share an instant; grid schedules draw both
// from a few round values, so arrivals, releases and requests on one
// resource coincide all the time.
func fabricSchedule(rng *rand.Rand, ops int, grid bool) []fabricOp {
	out := make([]fabricOp, ops)
	for i := range out {
		o := &out[i]
		if grid {
			o.at = time.Duration(rng.Intn(15000)) * 10 * time.Microsecond
			o.size = []int64{12500, 62500, 125000}[rng.Intn(3)]
			o.diskSize = []int64{0, 45000, 225000}[rng.Intn(3)]
		} else {
			o.at = time.Duration(rng.Int63n(int64(150 * time.Millisecond)))
			o.size = 1 + rng.Int63n(256<<10)
			o.diskSize = rng.Int63n(256 << 10)
		}
		hops := 1 + rng.Intn(3)
		o.path = []NodeID{NodeID(rng.Intn(refNodes))}
		for h := 0; h < hops; h++ {
			prev := o.path[len(o.path)-1]
			o.path = append(o.path, (prev+1+NodeID(rng.Intn(refNodes-1)))%refNodes)
		}
		o.disk = rng.Intn(3)
	}
	return out
}

// faultyLinks gives a network a degraded link, a lossy link and a slow
// disk, with the loss generator seeded.
func faultyLinks(n *Network, seed int64) {
	n.SeedFaults(seed)
	n.DegradeLink(0, 1, 1.7, 0.6)
	n.SetPacketLoss(1, 2, 0.3)
	n.SetDiskFactor(3, 2.5)
}

// runSchedule runs ops on a fresh network, through the reservations or,
// with ref, through refNet's FIFO locks, and returns each operation's
// completion instant.
func runSchedule(ops []fabricOp, faulty bool, seed int64, ref bool) []sim.Time {
	env := sim.NewEnv(1)
	n := New(env)
	for i := 0; i < refNodes; i++ {
		n.AddNode("n")
	}
	if faulty {
		faultyLinks(n, seed)
	}
	r := newRefNet(n, refNodes)
	done := make([]sim.Time, len(ops))
	for i, o := range ops {
		env.After(o.at, func() {
			for h := 1; h < len(o.path); h++ {
				if ref {
					r.transfer(o.path[h-1], o.path[h], o.size)
				} else if err := n.TryTransfer(o.path[h-1], o.path[h], o.size); err != nil {
					panic(err)
				}
			}
			last := o.path[len(o.path)-1]
			switch {
			case o.disk == 0:
			case ref:
				r.useDisk(last, o.diskTime())
			case o.disk == 1:
				n.Node(last).DiskRead(o.diskSize)
			default:
				n.Node(last).DiskWrite(o.diskSize)
			}
			done[i] = env.Now()
		})
	}
	env.Run()
	return done
}

// TestTransfersMatchSemaphoreModel: booking a NIC direction or a disk at
// the instant a process would have queued on it, as TryTransfer and the
// disk path do, completes every operation at the very instant the FIFO
// lock model does. Twenty seeded schedules of 3 000 operations each —
// 1–3 hops, disk reads and writes on nodes every path shares, every
// fourth seed with a degraded link, a lossy link and a slow disk — run
// on both, and every completion instant must be identical.
//
// On grid-aligned schedules, where many events share a nanosecond, the
// two may order same-instant requests differently (a booking's wake is
// sequenced when it is made, a lock's when it is granted), so there the
// reservations are checked against the properties of a FIFO server
// instead: bookings of one resource never overlap, none starts before
// it was requested, no resource idles while a booking waits, and every
// transfer takes at least 2·tx + latency.
func TestTransfersMatchSemaphoreModel(t *testing.T) {
	const seeds, ops = 20, 3000
	for seed := int64(1); seed <= seeds; seed++ {
		sched := fabricSchedule(rand.New(rand.NewSource(seed)), ops, false)
		faulty := seed%4 == 0
		got := runSchedule(sched, faulty, seed, false)
		want := runSchedule(sched, faulty, seed, true)
		for i := range sched {
			if got[i] != want[i] {
				t.Fatalf("seed %d (faults %v): op %d (start %v, path %v, %d B, disk %d) completed at %v, the FIFO lock model at %v",
					seed, faulty, i, sched[i].at, sched[i].path, sched[i].size, sched[i].disk, got[i], want[i])
			}
		}
	}
	differ, seedsDiffering := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		sched := fabricSchedule(rand.New(rand.NewSource(seed)), ops, true)
		checkReservations(t, seed, sched)
		got := runSchedule(sched, false, seed, false)
		want := runSchedule(sched, false, seed, true)
		d := 0
		for i := range sched {
			if got[i] != want[i] {
				d++
			}
		}
		if d > 0 {
			differ += d
			seedsDiffering++
		}
	}
	t.Logf("grid schedules: %d of %d completions differ from the FIFO lock model, on %d of %d seeds", differ, seeds*ops, seedsDiffering, seeds)
}

// booking is one reservation of a resource, as observed from outside:
// requested at req, holding the resource over [start, end).
type booking struct{ req, start, end sim.Time }

// checkReservations runs a healthy grid schedule one hop at a time,
// reconstructs every booking from what a caller can see — the transmit
// NIC's idle instant as it sends, the instant each transfer and disk
// operation returns — and checks them.
func checkReservations(t *testing.T, seed int64, sched []fabricOp) {
	t.Helper()
	env := sim.NewEnv(1)
	n := New(env)
	for i := 0; i < refNodes; i++ {
		n.AddNode("n")
	}
	var tx, rx, disk [refNodes][]booking
	for _, o := range sched {
		env.After(o.at, func() {
			for h := 1; h < len(o.path); h++ {
				from, to := o.path[h-1], o.path[h]
				d := n.txTime(o.size)
				sent := env.Now()
				txStart := max(sent, n.Node(from).tx)
				n.Transfer(from, to, o.size)
				end := env.Now()
				if end-sent < 2*d+linkLatency {
					t.Errorf("seed %d: transfer %d→%d of %d B took %v, less than 2·tx + latency", seed, from, to, o.size, end-sent)
				}
				tx[from] = append(tx[from], booking{sent, txStart, txStart + d})
				rx[to] = append(rx[to], booking{txStart + d + linkLatency, end - d, end})
			}
			last := o.path[len(o.path)-1]
			req := env.Now()
			switch o.disk {
			case 0:
				return
			case 1:
				n.Node(last).DiskRead(o.diskSize)
			default:
				n.Node(last).DiskWrite(o.diskSize)
			}
			end := env.Now()
			disk[last] = append(disk[last], booking{req, end - o.diskTime(), end})
		})
	}
	env.Run()
	for id := 0; id < refNodes; id++ {
		for _, r := range []struct {
			name string
			bs   []booking
		}{{"tx", tx[id]}, {"rx", rx[id]}, {"disk", disk[id]}} {
			if err := fifoServer(r.bs); err != "" {
				t.Errorf("seed %d: node %d %s: %s", seed, id, r.name, err)
			}
		}
	}
}

// fifoServer checks that bookings describe a work-conserving single
// server: no two overlap, none starts before its request, and one that
// starts after its request finds the resource busy all the while.
func fifoServer(bs []booking) string {
	sort.Slice(bs, func(i, j int) bool { return bs[i].start < bs[j].start })
	var busyFrom sim.Time // start of the busy period b belongs to
	for i, b := range bs {
		switch {
		case b.start < b.req:
			return "a booking starts before it was requested"
		case i > 0 && b.start < bs[i-1].end:
			return "two bookings overlap"
		case i == 0 || b.start > bs[i-1].end:
			busyFrom = b.start
		}
		if busyFrom > b.req {
			return "the resource idled while a booking waited"
		}
	}
	return ""
}
