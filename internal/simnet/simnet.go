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
	"sync"
	"sync/atomic"
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
	mu    sync.Mutex // guards nodes (writes) — readers use nodesA
	nodes []*Node
	// nodesA holds an immutable []*Node snapshot so Node(), on every
	// transfer and RPC, is a lock-free load instead of a mutex
	// round-trip. AddNode republishes the snapshot.
	nodesA atomic.Value
	flt    *faults // failure state, allocated eagerly (see faults.go)
}

// Node is one machine: a transmit NIC, a receive NIC and a disk, each a
// FIFO resource held as the instant it next falls idle (see book).
type Node struct {
	ID   NodeID
	Name string

	net  *Network
	tx   sim.Time
	rx   sim.Time
	disk sim.Time

	// Traffic counters are atomics: every transfer charges two of them,
	// so a stats mutex would serialize the whole data plane under -race.
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	diskRead  atomic.Int64
	diskWrite atomic.Int64
}

// New creates an empty network over env.
func New(env *sim.Env) *Network {
	n := &Network{env: env, flt: newFaults()}
	n.nodesA.Store([]*Node(nil))
	return n
}

// Env returns the simulation environment the network runs on.
func (n *Network) Env() *sim.Env { return n.env }

// AddNode registers a machine and returns it.
func (n *Network) AddNode(name string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := &Node{
		ID:   NodeID(len(n.nodes)),
		Name: name,
		net:  n,
	}
	n.nodes = append(n.nodes, node)
	snap := make([]*Node, len(n.nodes))
	copy(snap, n.nodes)
	n.nodesA.Store(snap)
	return node
}

// Node returns the node with the given id. Lock-free: it reads the
// published node snapshot, so the per-transfer hot path never touches
// the network mutex.
func (n *Network) Node(id NodeID) *Node {
	nodes := n.nodesA.Load().([]*Node)
	if int(id) < 0 || int(id) >= len(nodes) {
		panic(fmt.Sprintf("simnet: unknown node %d", id))
	}
	return nodes[id]
}

// Nodes returns all registered nodes.
func (n *Network) Nodes() []*Node {
	nodes := n.nodesA.Load().([]*Node)
	out := make([]*Node, len(nodes))
	copy(out, nodes)
	return out
}

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
	if from == to {
		if n.NodeDown(from) {
			n.env.Sleep(failureDetectDelay)
			return ErrUnreachable
		}
		n.env.Sleep(loopbackLatency)
		return nil
	}
	lf := n.lookFaults(from, to)
	if !lf.reachable {
		n.env.Sleep(failureDetectDelay)
		return ErrUnreachable
	}
	src, dst := n.Node(from), n.Node(to)
	tx := n.txTime(size)
	if lf.bwFactor > 0 && lf.bwFactor < 1 {
		tx = time.Duration(float64(tx) / lf.bwFactor)
	}
	lat := time.Duration(float64(linkLatency) * lf.latFactor)

	n.sleepUntil(n.book(&src.tx, tx) + lat)

	// Each lost packet costs a timeout-free retransmission round: the
	// peer's NACK (or the sender's fast-retransmit) travels back, and
	// the payload is serialized and propagated again.
	for i := 0; i < lf.retransmit; i++ {
		n.env.Sleep(lat) // feedback to sender
		n.sleepUntil(n.book(&src.tx, tx) + lat)
	}

	n.sleepUntil(n.book(&dst.rx, tx))

	src.bytesSent.Add(size)
	dst.bytesRecv.Add(size)
	return nil
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
	base := diskReadLatency + time.Duration(float64(size)/diskReadBandwidth*float64(time.Second))
	nd.useDisk(base)
	nd.diskRead.Add(size)
}

// DiskWrite charges a write of size bytes against the node's disk,
// blocking the calling process.
func (nd *Node) DiskWrite(size int64) {
	base := diskWriteLatency + time.Duration(float64(size)/diskWriteBandwidth*float64(time.Second))
	nd.useDisk(base)
	nd.diskWrite.Add(size)
}

// useDisk books the disk for an operation of base duration, stretched
// by the node's current disk slowdown, and sleeps until it completes.
func (nd *Node) useDisk(base time.Duration) {
	n := nd.net
	n.sleepUntil(n.book(&nd.disk, time.Duration(float64(base)*n.diskFactor(nd.ID))))
}

// Stats reports cumulative traffic counters for the node.
func (nd *Node) Stats() (bytesSent, bytesRecv, diskRead, diskWrite int64) {
	return nd.bytesSent.Load(), nd.bytesRecv.Load(), nd.diskRead.Load(), nd.diskWrite.Load()
}
