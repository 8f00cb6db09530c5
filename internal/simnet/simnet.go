// Package simnet models the cluster fabric of the OFC testbed: a set
// of named nodes joined by a switched network with per-NIC
// serialization, plus a local disk per node.
//
// The paper's testbed is six machines on a 10 Gb/s Ethernet switch with
// one 480 GB SSD each. This package reproduces that topology as a
// latency/bandwidth model on the sim virtual clock: transfers cost
// transmit serialization on the sender NIC, propagation latency, and
// receive serialization on the receiver NIC; disk I/O costs a seek/op
// latency plus size over bandwidth, serialized per disk.
package simnet

import (
	"fmt"
	"slices"
	"time"

	"ofc/internal/sim"
)

// NodeID identifies a node in the network.
type NodeID int

// The fabric constants model the paper's testbed: 10 GbE and a SATA SSD.
const (
	// linkLatency is the one-way propagation latency between two
	// distinct nodes (switch traversal included).
	linkLatency = 25 * time.Microsecond
	// loopbackLatency is the one-way latency for a node talking to
	// itself (kernel loopback).
	loopbackLatency = 5 * time.Microsecond
	// bandwidth is the NIC line rate in bytes per second.
	bandwidth = 10e9 / 8 // 10 Gb/s
	// diskReadLatency and diskWriteLatency are per-operation costs.
	diskReadLatency  = 80 * time.Microsecond
	diskWriteLatency = 50 * time.Microsecond
	// diskReadBandwidth and diskWriteBandwidth are in bytes per second.
	diskReadBandwidth  = 500e6
	diskWriteBandwidth = 450e6
	// failureDetectDelay is the time a sender spends before concluding
	// a peer is unreachable (transport timeout).
	failureDetectDelay = 500 * time.Microsecond
)

// Network is the cluster fabric: nodes, NICs and disks.
type Network struct {
	env   *sim.Env
	nodes []*Node
	flt   *faults // failure state, allocated eagerly (see faults.go)

	// free holds finished hop records for reuse (see hop).
	free []*hop
}

// Node is one machine: a transmit NIC, a receive NIC and a disk, each a
// FIFO resource held as the instant it next falls idle (see book). It
// is also the one owner of two facts every layer on the machine reads:
// whether it is up, and how much of its memory the co-located cache
// may use.
type Node struct {
	ID   NodeID
	Name string

	net  *Network
	tx   sim.Time
	rx   sim.Time
	disk sim.Time

	bytesSent int64
	bytesRecv int64
	diskRead  int64
	diskWrite int64

	// down is the fail-stop flag (Network.SetNodeDown writes it); grant
	// is the cache grant in bytes: the cache's storage server enforces
	// it as its master memory limit, and the invoker keeps sandboxes out
	// of it.
	down  bool
	grant int64
}

// Down reports whether the machine is fail-stopped.
func (nd *Node) Down() bool { return nd.down }

// Grant returns the bytes of the machine's memory granted to the cache.
func (nd *Node) Grant() int64 { return nd.grant }

// SetGrant sets the cache grant. The caller decides the amount (the
// invoker clamps it to the memory sandboxes leave free); the machine
// only holds it.
func (nd *Node) SetGrant(bytes int64) { nd.grant = bytes }

// New creates an empty network over env.
func New(env *sim.Env) *Network {
	return &Network{env: env, flt: newFaults()}
}

// Env returns the simulation environment the network runs on.
func (n *Network) Env() *sim.Env { return n.env }

// AddNode registers a machine and returns it.
func (n *Network) AddNode(name string) *Node {
	node := &Node{
		ID:   NodeID(len(n.nodes)),
		Name: name,
		net:  n,
	}
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: unknown node %d", id))
	}
	return n.nodes[id]
}

// Nodes returns a copy of the registered nodes.
func (n *Network) Nodes() []*Node { return slices.Clone(n.nodes) }

// txTime is the serialization time of size bytes at line rate.
func (n *Network) txTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bandwidth * float64(time.Second))
}

// book reserves the FIFO resource whose next idle instant is *free for
// d, starting now or when it falls idle, whichever is later, and
// returns the instant the reservation ends. Callers book at the
// instant the request reaches the resource — transmit at send, receive
// at arrival, disk at request — with its service time known then, so a
// reservation starts exactly when a FIFO server would start it
// (Lindley's recursion). No process parks on a NIC or a disk: it sleeps
// to the end of its booking instead.
func (n *Network) book(free *sim.Time, d time.Duration) sim.Time {
	start := max(n.env.Now(), *free)
	*free = start + d
	return *free
}

// sleepUntil blocks the calling process until the instant at.
func (n *Network) sleepUntil(at sim.Time) { n.env.Sleep(at - n.env.Now()) }

// Transfer moves size bytes from one node to another, blocking the
// calling process for the full transfer duration. Same-node transfers
// cost only the loopback latency. Transfer is the legacy infallible
// path: when a fault makes the destination unreachable it still pays
// the failure-detection delay but swallows the error; callers that
// care use TryTransfer.
func (n *Network) Transfer(from, to NodeID, size int64) {
	_ = n.TryTransfer(from, to, size)
}

// TryTransfer moves size bytes from one node to another, blocking the
// calling process for the full transfer duration. It consults the
// fault layer: an unreachable destination (node down or link
// partitioned) costs the failure-detection delay and returns
// ErrUnreachable; a degraded link stretches latency and serialization;
// packet loss adds retransmission rounds.
func (n *Network) TryTransfer(from, to NodeID, size int64) error {
	h := hop{n: n, from: from, to: to, size: size}
	return h.wait()
}

// TransferThen is TryTransfer without a process: it makes the same
// bookings at the same instants, each from a continuation
// (sim.Env.Then) where TryTransfer sleeps, and calls done with
// TryTransfer's error at the instant TryTransfer would have returned.
// The transfer's record is recycled before done runs, so a transfer
// allocates nothing. done runs as a continuation: it must not block,
// and once the environment is stopped it runs inside TransferThen.
func (n *Network) TransferThen(from, to NodeID, size int64, done func(error)) {
	h := n.newHop()
	h.from, h.to, h.size, h.done = from, to, size, done
	h.advance()
}

// TryCall is the fallible RPC path: if either leg of the round trip
// fails (destination down or partitioned) it returns ErrUnreachable
// and serve's result is the zero value; serve is not invoked when the
// request leg fails.
func TryCall[T any](n *Network, from, to NodeID, reqSize, respSize int64, serve func() T) (T, error) {
	var zero T
	if err := n.TryTransfer(from, to, reqSize); err != nil {
		return zero, err
	}
	v := serve()
	if err := n.TryTransfer(to, from, respSize); err != nil {
		return zero, err
	}
	return v, nil
}

// DiskRead charges a read of size bytes against the node's disk,
// blocking the calling process.
func (nd *Node) DiskRead(size int64) {
	nd.net.sleepUntil(nd.bookDisk(diskReadLatency + time.Duration(float64(size)/diskReadBandwidth*float64(time.Second))))
	nd.diskRead += size
}

// DiskWrite charges a write of size bytes against the node's disk,
// blocking the calling process.
func (nd *Node) DiskWrite(size int64) {
	h := hop{n: nd.net, dst: nd, size: size, stage: hopDiskWrite}
	h.wait()
}

// DiskWriteThen is DiskWrite without a process: it books the disk now,
// as DiskWrite does, and calls done from a continuation at the instant
// DiskWrite would have returned. Like TransferThen it allocates
// nothing, and done must not block.
func (nd *Node) DiskWriteThen(size int64, done func()) {
	h := nd.net.newHop()
	h.dst, h.size, h.stage, h.wrote = nd, size, hopDiskWrite, done
	h.advance()
}

// bookDisk books the disk for an operation of base duration, stretched
// by the node's current disk slowdown, and returns the instant it
// completes.
func (nd *Node) bookDisk(base time.Duration) sim.Time {
	n := nd.net
	return n.book(&nd.disk, time.Duration(float64(base)*n.diskFactor(nd.ID)))
}

// hop is one transfer or disk write in flight, and the one owner of its
// booking schedule: step makes the bookings due at the current instant
// and returns the instant of the next stage. TryTransfer and DiskWrite
// drive a hop on their stack by sleeping to each such instant (wait);
// TransferThen and DiskWriteThen drive a pooled one by scheduling its
// continuation there (advance). Either way every booking is made at the
// same instant, and every timer pushed in the same order.
type hop struct {
	n        *Network
	from, to NodeID
	size     int64
	stage    hopStage
	src, dst *Node
	d, lat   time.Duration // serialization time and propagation latency
	rounds   int           // retransmission rounds left
	err      error
	ending   bool // advance has scheduled the hop's last stage

	// A pooled hop's continuation: done (a transfer) or wrote (a disk
	// write) is called when it ends. resume is advance, bound once when
	// the record is made.
	done   func(error)
	wrote  func()
	resume func()
}

// hopStage is what a hop does when step is next called.
type hopStage uint8

const (
	// hopSend: look up the link's faults and book the transmit NIC, or
	// wait out a loopback or an unreachable peer.
	hopSend hopStage = iota
	// hopSent: the payload has propagated; a retransmission round
	// begins, or it arrives and books the receive NIC.
	hopSent
	// hopResend: the loss feedback has reached the sender, which books
	// the transmit NIC again.
	hopResend
	// hopArrived: the receive NIC is booked; at its end, the bytes count.
	hopArrived
	// hopDiskWrite: book the disk; at its end, the bytes count.
	hopDiskWrite
)

// step advances h by one stage, at the current instant, and returns
// the instant the next stage begins and whether that one is the last:
// at the last, end counts the bytes and the hop is over (a transfer's
// error is then in h.err).
//
// A transfer books the transmit NIC as it is sent and the receive NIC
// at arrival (see book). Each lost packet costs a timeout-free
// retransmission round: the peer's NACK (or the sender's
// fast-retransmit) travels back, and the payload is serialized and
// propagated again.
func (h *hop) step() (at sim.Time, last bool) {
	n := h.n
	switch h.stage {
	case hopSend:
		now := n.env.Now()
		if h.from == h.to {
			if n.NodeDown(h.from) {
				h.err = ErrUnreachable
				return now + failureDetectDelay, true
			}
			return now + loopbackLatency, true
		}
		lf := n.lookFaults(h.from, h.to)
		if !lf.reachable {
			h.err = ErrUnreachable
			return now + failureDetectDelay, true
		}
		h.src, h.dst = n.Node(h.from), n.Node(h.to)
		h.d = n.txTime(h.size)
		if lf.bwFactor > 0 && lf.bwFactor < 1 {
			h.d = time.Duration(float64(h.d) / lf.bwFactor)
		}
		h.lat = time.Duration(float64(linkLatency) * lf.latFactor)
		h.rounds = lf.retransmit
		h.stage = hopSent
		return n.book(&h.src.tx, h.d) + h.lat, false
	case hopSent:
		if h.rounds > 0 {
			h.rounds--
			h.stage = hopResend
			return n.env.Now() + h.lat, false // feedback to sender
		}
		h.stage = hopArrived
		return n.book(&h.dst.rx, h.d), true
	case hopResend:
		h.stage = hopSent
		return n.book(&h.src.tx, h.d) + h.lat, false
	default: // hopDiskWrite
		return h.dst.bookDisk(diskWriteLatency + time.Duration(float64(h.size)/diskWriteBandwidth*float64(time.Second))), true
	}
}

// end counts the bytes of a hop whose last stage has come.
func (h *hop) end() {
	switch h.stage {
	case hopArrived:
		h.src.bytesSent += h.size
		h.dst.bytesRecv += h.size
	case hopDiskWrite:
		h.dst.diskWrite += h.size
	}
}

// wait drives h in the calling process, sleeping to each stage.
func (h *hop) wait() error {
	for {
		at, last := h.step()
		h.n.sleepUntil(at)
		if last {
			h.end()
			return h.err
		}
	}
}

// advance drives a pooled h: it runs the stage due now and schedules
// itself at the next one, and at the last counts the bytes, recycles h
// and calls its continuation.
func (h *hop) advance() {
	n := h.n
	if !h.ending {
		at, last := h.step()
		h.ending = last
		n.env.Then(at-n.env.Now(), h.resume)
		return
	}
	h.end()
	err, done, wrote := h.err, h.done, h.wrote
	n.recycle(h)
	if wrote != nil {
		wrote()
		return
	}
	done(err)
}

// newHop takes a record from the free list, or makes one.
func (n *Network) newHop() *hop {
	if k := len(n.free); k > 0 {
		h := n.free[k-1]
		n.free = n.free[:k-1]
		return h
	}
	h := &hop{n: n}
	h.resume = h.advance
	return h
}

// recycle returns a finished record to the free list.
func (n *Network) recycle(h *hop) {
	*h = hop{n: n, resume: h.resume}
	n.free = append(n.free, h)
}

// Stats reports cumulative traffic counters for the node.
func (nd *Node) Stats() (bytesSent, bytesRecv, diskRead, diskWrite int64) {
	return nd.bytesSent, nd.bytesRecv, nd.diskRead, nd.diskWrite
}
