package engine

import (
	"fmt"
	"slices"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// Collectives is the middle layer of the engine: broadcasts of the step
// schedule's panel messages, realized with the same algorithms the
// simulator models (sim.BroadcastKind), so a real run and a simulated run
// of the same kernel select the identical communication schedule. Every rank computes each collective's schedule independently
// from the shared (root, receivers) inputs, which keeps the SPMD bodies
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
	return NewCollectivesKind(c, c.Broadcast())
}

// NewCollectivesKind binds a rank's endpoint with an explicit broadcast
// algorithm.
func NewCollectivesKind(c *Comm, kind sim.BroadcastKind) *Collectives {
	return &Collectives{c: c, kind: kind}
}

// Bcast delivers data from root to every receiver under the collective's
// algorithm and returns the payload at each participant (root included).
// Every rank in {root} ∪ receivers must call it with identical arguments;
// rows is the payload's row count, which receivers need up front to drive
// the segmented-ring pipeline. Ranks outside the participant set must not
// call.
//
// The message pattern is sim.BroadcastEdges, the one the simulator prices:
// a rank receives on its in-edge and forwards along its out-edges, which
// delivery order lists after it.
func (co *Collectives) Bcast(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	me := co.c.Rank()
	edges := sim.BroadcastEdges(co.kind, root, receivers)
	if me == root && len(edges) == 0 {
		return data
	}
	from := -1
	if me != root {
		in := slices.IndexFunc(edges, func(e sim.Edge) bool { return e.To == me })
		if in < 0 {
			panic(fmt.Sprintf("engine: rank %d called Bcast %q without being a participant", me, tag))
		}
		from, edges = edges[in].From, edges[in+1:]
	}
	forward := func(as string, m *matrix.Dense) {
		for _, e := range edges {
			if e.From == me {
				co.c.Send(e.To, as, m)
			}
		}
	}
	if co.kind != sim.SegmentedRingBroadcast {
		if from >= 0 {
			data = co.c.Recv(from, tag)
		}
		forward(tag, data)
		return data
	}
	// The segmented ring pipelines the payload along the chain in row
	// segments: while a node forwards segment s, its predecessor already
	// sends it segment s+1 (goroutines provide the overlap the simulator
	// models). At most sim.BroadcastSegments segments, and never more than
	// the payload has rows.
	segs := max(1, min(rows, sim.BroadcastSegments))
	var parts []*matrix.Dense
	for s := 0; s < segs; s++ {
		segTag := fmt.Sprintf("%s/s%d", tag, s)
		if from < 0 {
			_, cols := data.Dims()
			forward(segTag, data.Slice(s*rows/segs, (s+1)*rows/segs, 0, cols))
			continue
		}
		seg := co.c.Recv(from, segTag)
		forward(segTag, seg)
		parts = append(parts, seg)
	}
	if from < 0 {
		return data
	}
	return stackRows(parts)
}

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

// Panel delivers the schedule's panel messages: the blocks each message
// carries travel from its root to its receivers as one stacked payload —
// the ScaLAPACK panel message, exactly what the simulator prices and the
// analytic CommVolume charges. All grid ranks must call it with identical
// messages; get(i) is the block with index i at its owner (not consulted
// elsewhere), r the square block size.
//
// The returned map holds the payload of every block index this rank owns
// or receives — the resident block itself at the root, the received copy
// elsewhere.
func (co *Collectives) Panel(tag string, msgs []distribution.Msg, get func(int) *matrix.Dense, r int) map[int]*matrix.Dense {
	sp := co.c.Phase("panel " + tag)
	defer co.c.EndPhase(sp)
	me := co.c.Rank()
	out := make(map[int]*matrix.Dense)
	for _, m := range msgs {
		if me == m.Root {
			// Resident blocks are used in place; the stacked clone only
			// travels.
			for _, i := range m.Blocks {
				out[i] = get(i)
			}
		} else if !slices.Contains(m.Recv, me) {
			continue
		}
		if m.Fanout() == 0 {
			// Every receiver is the owner: nothing travels, skip the stack.
			continue
		}
		var payload *matrix.Dense
		if me == m.Root {
			parts := make([]*matrix.Dense, len(m.Blocks))
			for bi, i := range m.Blocks {
				parts[bi] = get(i)
			}
			payload = stackRows(parts)
		}
		got := co.Bcast(fmt.Sprintf("%s/g%d", tag, m.Blocks[0]), m.Root, m.Recv, payload, len(m.Blocks)*r)
		if me != m.Root {
			for bi, i := range m.Blocks {
				out[i] = got.Slice(bi*r, (bi+1)*r, 0, r)
			}
		}
	}
	return out
}
