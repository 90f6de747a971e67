// Package sim provides a virtual-time simulator for heterogeneous networks
// of workstations (HNOWs), the evaluation substrate the paper's "simulation
// measurements" rely on.
//
// The model follows §2.2 of the paper:
//
//   - each processor has a cycle-time (compute speed) and performs its
//     communications sequentially (one NIC, serialized);
//   - the interconnect is either a shared bus (standard Ethernet: all
//     transfers in the network serialized) or switched (Myrinet-like:
//     independent transfers proceed in parallel, limited only by the
//     endpoints);
//   - a message of s bytes costs Latency + s·ByteTime.
//
// Rather than a callback-driven event loop, the simulator uses explicit
// virtual-time resource timelines: every resource (CPU, NIC, bus) is a
// serialized timeline, and each operation reserves intervals on the
// resources it occupies. Because the kernels' dependency graphs are known,
// reserving in dependency order yields exactly the schedule an event-driven
// simulation would produce, with far less machinery. Determinism is total:
// the same inputs give bit-identical schedules.
//
// A traced cluster (EnableTrace) records every Compute and Send as an
// obs.Span — the record a real execution writes — so internal/obs renders
// and sums predicted and measured timelines with the same code.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"hetgrid/internal/obs"
)

// Timeline is a serialized resource in virtual time. The zero value is a
// free resource at time 0.
type Timeline struct {
	freeAt float64 // end of the last reservation
	busy   float64 // total reserved duration
}

// reserve books the resource for dur time units starting no earlier than
// ready and no earlier than the resource's previous reservation, returning
// the start and end of the booked interval.
func (t *Timeline) reserve(ready, dur float64) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v", dur))
	}
	start = math.Max(ready, t.freeAt)
	end = start + dur
	t.freeAt = end
	t.busy += dur
	return start, end
}

// Config describes the communication fabric.
type Config struct {
	// Latency is the fixed per-message cost (α).
	Latency float64
	// ByteTime is the per-byte transfer cost (β, inverse bandwidth).
	ByteTime float64
	// SharedBus serializes every transfer in the network (Ethernet). When
	// false the network is switched and transfers contend only for their
	// endpoints' NICs.
	SharedBus bool
	// FullDuplex gives every node independent send and receive channels: a
	// node can forward one message while receiving the next, the property
	// pipelined ring broadcasts exploit. The default (half duplex) runs
	// all of a node's communication through one serialized NIC, matching
	// the paper's "communications performed by one processor are
	// sequential" model.
	FullDuplex bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("sim: negative latency %v", c.Latency)
	}
	if c.ByteTime < 0 {
		return fmt.Errorf("sim: negative byte time %v", c.ByteTime)
	}
	return nil
}

// Stats accumulates traffic and utilization counters for a simulation run.
type Stats struct {
	Messages  int
	Bytes     float64
	NodeBusy  []float64 // compute-busy time per node
	NICBusy   []float64 // communication-busy time per node
	BusBusy   float64   // shared bus occupancy (0 for switched networks)
	Makespan  float64   // completion time of the whole run
	CompBound float64   // max over nodes of pure compute time (lower bound)
}

// Cluster is a set of nodes with CPU and NIC timelines over a common
// network. Node identifiers are 0..N-1; grid mapping is the caller's
// concern.
type Cluster struct {
	cfg  Config
	cpus []Timeline
	// nics serializes all communication per node in half-duplex mode and
	// doubles as the send channel in full-duplex mode, where nicsIn
	// provides the independent receive channel.
	nics   []Timeline
	nicsIn []Timeline
	bus    Timeline
	msgs   int
	bytes  float64
	spans  []obs.Span // non-nil once EnableTrace was called
	label  string
	edges  []Edge // Broadcast's scratch
}

// NewCluster returns a cluster of n idle nodes.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: invalid node count %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:  cfg,
		cpus: make([]Timeline, n),
		nics: make([]Timeline, n),
	}
	if cfg.FullDuplex {
		c.nicsIn = make([]Timeline, n)
	}
	return c, nil
}

// rxNIC returns the receive channel of a node.
func (c *Cluster) rxNIC(node int) *Timeline {
	if c.cfg.FullDuplex {
		return &c.nicsIn[node]
	}
	return &c.nics[node]
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.cpus) }

// Config returns the communication configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Compute reserves dur time units of CPU on node, starting when both the
// dependency time ready and the CPU allow, and returns the completion time.
func (c *Cluster) Compute(node int, ready, dur float64) float64 {
	c.checkNode(node)
	start, end := c.cpus[node].reserve(ready, dur)
	if c.spans != nil {
		c.record(obs.Span{Kind: obs.SpanCompute, Rank: node, Peer: -1, Start: start, End: end})
	}
	return end
}

// Send transfers bytes from src to dst, starting when ready, the source
// NIC, the destination NIC (and the bus, on shared networks) are all
// available, and returns the arrival time. A self-send is free and
// instantaneous (local data).
func (c *Cluster) Send(src, dst int, bytes, ready float64) float64 {
	c.checkNode(src)
	c.checkNode(dst)
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative message size %v", bytes))
	}
	if src == dst {
		return ready
	}
	dur := c.cfg.Latency + bytes*c.cfg.ByteTime
	rx := c.rxNIC(dst)
	start := math.Max(ready, math.Max(c.nics[src].freeAt, rx.freeAt))
	if c.cfg.SharedBus {
		start = math.Max(start, c.bus.freeAt)
	}
	c.nics[src].reserve(start, dur)
	rx.reserve(start, dur)
	if c.cfg.SharedBus {
		c.bus.reserve(start, dur)
	}
	c.msgs++
	c.bytes += bytes
	if c.spans != nil {
		c.record(obs.Span{Kind: obs.SpanSend, Rank: src, Peer: dst, Start: start, End: start + dur, Bytes: bytes})
	}
	return start + dur
}

// Makespan returns the latest completion time over every resource.
func (c *Cluster) Makespan() float64 {
	m := c.bus.freeAt
	for i := range c.cpus {
		m = math.Max(m, c.cpus[i].freeAt)
		m = math.Max(m, c.nics[i].freeAt)
		if c.nicsIn != nil {
			m = math.Max(m, c.nicsIn[i].freeAt)
		}
	}
	return m
}

// Snapshot returns the accumulated statistics. CompBound is the maximum
// compute-busy time over nodes: no schedule can finish before it.
func (c *Cluster) Snapshot() *Stats {
	s := &Stats{
		Messages: c.msgs,
		Bytes:    c.bytes,
		NodeBusy: make([]float64, len(c.cpus)),
		NICBusy:  make([]float64, len(c.nics)),
		BusBusy:  c.bus.busy,
		Makespan: c.Makespan(),
	}
	for i := range c.cpus {
		s.NodeBusy[i] = c.cpus[i].busy
		s.NICBusy[i] = c.nics[i].busy
		if c.nicsIn != nil {
			s.NICBusy[i] += c.nicsIn[i].busy
		}
		if s.NodeBusy[i] > s.CompBound {
			s.CompBound = s.NodeBusy[i]
		}
	}
	return s
}

func (c *Cluster) checkNode(node int) {
	if node < 0 || node >= len(c.cpus) {
		panic(fmt.Sprintf("sim: node %d out of range %d", node, len(c.cpus)))
	}
}

// BroadcastKind selects how one-to-many transfers are realized.
type BroadcastKind int

const (
	// StarBroadcast sends from the root to every receiver one after the
	// other through the root's (sequential) NIC — the basic model matching
	// "the communications performed by one processor are sequential".
	StarBroadcast BroadcastKind = iota
	// RingBroadcast forwards the message along the receiver list:
	// root → recv[0] → recv[1] → …, the pipelined ring of the ScaLAPACK
	// row/column broadcasts.
	RingBroadcast
	// TreeBroadcast uses a binomial tree over {root} ∪ receivers: informed
	// nodes keep re-sending to uninformed ones, halving the rounds (the
	// "minimum spanning tree topology" of the paper's LU description).
	TreeBroadcast
	// SegmentedRingBroadcast splits the message into segments pipelined
	// along the ring: while a node forwards segment s, its predecessor
	// already sends it segment s+1. For long chains and large messages the
	// completion time approaches one message time plus one segment per hop
	// instead of one full message per hop — the pipelined ring the paper's
	// §3.1.1 relies on ("broadcasts are performed as independent ring
	// broadcasts, hence they can be pipelined").
	SegmentedRingBroadcast
)

// BroadcastSegments is the segment count used by SegmentedRingBroadcast.
// ScaLAPACK tunes this to the platform; 8 is a reasonable default for the
// virtual fabric.
const BroadcastSegments = 8

// Edge is one point-to-point transfer of a broadcast.
type Edge struct{ From, To int }

// BroadcastEdges derives who forwards to whom in a broadcast from root:
// one edge per distinct receiver other than the root (repeats dropped,
// first-appearance order kept), in delivery order — every From is the root
// or the To of an earlier edge. It is the one derivation the simulator
// prices and the engine executes. The segmented ring's edges are its
// chain, which every segment travels in turn.
func BroadcastEdges(kind BroadcastKind, root int, receivers []int) []Edge {
	return appendBroadcastEdges(make([]Edge, 0, len(receivers)), kind, root, receivers)
}

// appendBroadcastEdges is BroadcastEdges into the empty slice edges.
func appendBroadcastEdges(edges []Edge, kind BroadcastKind, root int, receivers []int) []Edge {
	if kind < StarBroadcast || kind > SegmentedRingBroadcast {
		panic(fmt.Sprintf("sim: unknown broadcast kind %d", kind))
	}
next:
	for _, r := range receivers {
		if r == root {
			continue
		}
		for _, e := range edges {
			if e.To == r {
				continue next
			}
		}
		// The informed nodes are, in order, the root and edges[·].To; this
		// receiver is the j-th to join them.
		j := len(edges)
		from := root
		switch kind {
		case RingBroadcast, SegmentedRingBroadcast:
			if j > 0 {
				from = edges[j-1].To
			}
		case TreeBroadcast:
			// Binomial rounds: each of the 2^k nodes informed so far sends
			// to the next uninformed one, so the sender's position among
			// the informed is j+1 without its leading bit.
			if pos := (j + 1) &^ (1 << (bits.Len(uint(j+1)) - 1)); pos > 0 {
				from = edges[pos-1].To
			}
		}
		edges = append(edges, Edge{From: from, To: r})
	}
	return edges
}

// Broadcast delivers bytes from root to each receiver, writing each node's
// arrival time into arrival, which has one slot per node: the root and
// every node that is not a receiver read ready. The schedule respects NIC
// serialization, so overlapping broadcasts contend realistically: the
// per-node serialization in Send keeps the tree's rounds honest and
// provides the segmented ring's pipeline hazards.
func (c *Cluster) Broadcast(kind BroadcastKind, root int, receivers []int, bytes, ready float64, arrival []float64) {
	c.edges = appendBroadcastEdges(c.edges[:0], kind, root, receivers)
	for n := range arrival {
		arrival[n] = ready
	}
	passes := 1
	if kind == SegmentedRingBroadcast {
		passes, bytes = BroadcastSegments, bytes/BroadcastSegments
	}
	for s := 0; s < passes; s++ {
		for _, e := range c.edges {
			arrival[e.To] = c.Send(e.From, e.To, bytes, arrival[e.From])
		}
	}
}
