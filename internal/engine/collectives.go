package engine

import (
	"fmt"
	"slices"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// Collectives is the middle layer of the engine: broadcasts of the step
// schedule's panel messages, realized with the algorithms the simulator
// models (sim.BroadcastKind), so a real run and a simulated run of the same
// kernel select the identical communication schedule.
//
// Every rank computes each collective's schedule independently from the
// shared (root, receivers) inputs, which keeps the SPMD bodies
// deadlock-free: sends never block, and every Recv has a matching Send
// issued by a rank that is not waiting on this rank.
type Collectives struct {
	c    *Comm
	kind sim.BroadcastKind
}

// NewCollectives binds a rank's endpoint, taking the broadcast algorithm
// from the world's options. The distribution argument is unused — receiver
// sets come from the step schedule (distribution.Layout) the kernels build
// — and stays for the benchmark, which calls it.
func NewCollectives(c *Comm, _ distribution.Distribution) *Collectives {
	return &Collectives{c: c, kind: c.world.opts.Broadcast}
}

// Bcast delivers data from root to every receiver under the collective's
// algorithm and returns the payload at each participant (root included).
// Every rank in {root} ∪ receivers must call it with identical arguments;
// rows is the payload's row count, which receivers need up front to drive
// the pipelined ring. Ranks outside the participant set must not call. It
// is the root's send half and the receivers' receive half.
//
// The message pattern is sim.BroadcastEdges, the one the simulator prices:
// a rank receives on its in-edge and forwards along its out-edges, which
// delivery order lists after it.
func (co *Collectives) Bcast(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	if co.c.Rank() == root {
		co.bcastSend(tag, root, receivers, data, rows)
		return data
	}
	return co.bcastRecv(tag, root, receivers, rows)
}

// bcastSend is Bcast's send half, run by the root: data leaves along the
// root's out-edges. The pipelined ring sends the payload along the chain in
// row segments: while a node forwards segment s, its predecessor already
// sends it segment s+1 (goroutines provide the overlap the simulator
// models). At most sim.BroadcastSegments segments, and never more than the
// payload has rows.
func (co *Collectives) bcastSend(tag string, root int, receivers []int, data *matrix.Dense, rows int) {
	edges := sim.BroadcastEdges(co.kind, root, receivers)
	if co.kind != sim.PipelinedRingBroadcast {
		co.forward(root, edges, tag, data)
		return
	}
	segs := segments(rows)
	_, cols := data.Dims()
	for s := 0; s < segs; s++ {
		co.forward(root, edges, fmt.Sprintf("%s/s%d", tag, s), data.Slice(s*rows/segs, (s+1)*rows/segs, 0, cols))
	}
}

// bcastRecv is Bcast's receive half, run by every receiver: the payload
// arrives on the rank's in-edge and is forwarded along its out-edges,
// segment by segment for the pipelined ring.
func (co *Collectives) bcastRecv(tag string, root int, receivers []int, rows int) *matrix.Dense {
	me := co.c.Rank()
	edges := sim.BroadcastEdges(co.kind, root, receivers)
	in := slices.IndexFunc(edges, func(e sim.Edge) bool { return e.To == me })
	if in < 0 {
		panic(fmt.Sprintf("engine: rank %d called Bcast %q without being a participant", me, tag))
	}
	from, edges := edges[in].From, edges[in+1:]
	if co.kind != sim.PipelinedRingBroadcast {
		data := co.c.Recv(from, tag)
		co.forward(me, edges, tag, data)
		return data
	}
	parts := make([]*matrix.Dense, segments(rows))
	for s := range parts {
		segTag := fmt.Sprintf("%s/s%d", tag, s)
		parts[s] = co.c.Recv(from, segTag)
		co.forward(me, edges, segTag, parts[s])
	}
	return stackRows(parts)
}

// forward sends m along from's out-edges.
func (co *Collectives) forward(from int, edges []sim.Edge, tag string, m *matrix.Dense) {
	for _, e := range edges {
		if e.From == from {
			co.c.Send(e.To, tag, m)
		}
	}
}

// segments is the pipelined ring's segment count for a payload of rows rows.
func segments(rows int) int { return max(1, min(rows, sim.BroadcastSegments)) }

// stackRows concatenates matrices vertically.
func stackRows(parts []*matrix.Dense) *matrix.Dense {
	rows, cols := 0, 0
	for _, p := range parts {
		r, c := p.Dims()
		rows += r
		cols = c
	}
	out := matrix.New(rows, cols)
	at := 0
	for _, p := range parts {
		r, _ := p.Dims()
		if r > 0 {
			out.Slice(at, at+r, 0, cols).CopyFrom(p)
		}
		at += r
	}
	return out
}

// panelSend is the send half of a step's panel messages: the blocks each
// message carries travel from its root to its receivers as one stacked
// payload — the ScaLAPACK panel message, exactly what the simulator prices
// and the analytic CommVolume charges. All grid ranks call it, and later
// panelRecv, with identical messages; get(i) is the block with index i at
// its owner (not consulted elsewhere), r the square block size. The stack
// is the panel's one copy: Send hands it over to every out-edge. The
// returned map holds the resident blocks of the messages this rank roots,
// used in place; panelRecv adds views of the received payloads, which are
// read-only (Comm.Send).
func (co *Collectives) panelSend(tag string, msgs []distribution.Msg, get func(int) *matrix.Dense, r int) map[int]*matrix.Dense {
	me := co.c.Rank()
	out := make(map[int]*matrix.Dense)
	for _, m := range msgs {
		if m.Root != me {
			continue
		}
		for _, i := range m.Blocks {
			out[i] = get(i)
		}
		if m.Fanout() == 0 {
			// Every receiver is the owner: nothing travels, skip the stack.
			continue
		}
		parts := make([]*matrix.Dense, len(m.Blocks))
		for bi, i := range m.Blocks {
			parts[bi] = out[i]
		}
		co.bcastSend(groupTag(tag, m), m.Root, m.Recv, stackRows(parts), len(m.Blocks)*r)
	}
	return out
}

// panelRecv is the receive half: the messages this rank receives (and
// forwards) land in out, one r×r view of the payload per block.
func (co *Collectives) panelRecv(tag string, msgs []distribution.Msg, r int, out map[int]*matrix.Dense) {
	sp := co.c.Phase("panel " + tag)
	defer co.c.EndPhase(sp)
	me := co.c.Rank()
	for _, m := range msgs {
		if m.Root == me || !slices.Contains(m.Recv, me) {
			continue
		}
		got := co.bcastRecv(groupTag(tag, m), m.Root, m.Recv, len(m.Blocks)*r)
		for bi, i := range m.Blocks {
			out[i] = got.Slice(bi*r, (bi+1)*r, 0, r)
		}
	}
}

// groupTag names a panel message by its first block.
func groupTag(tag string, m distribution.Msg) string { return fmt.Sprintf("%s/g%d", tag, m.Blocks[0]) }
