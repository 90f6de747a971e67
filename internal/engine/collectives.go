package engine

import (
	"fmt"
	"slices"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// Collectives is the middle layer of the engine: broadcasts of the step
// schedule's panel messages and reductions, realized with the same
// algorithms the simulator models (sim.BroadcastKind), so a real run and a
// simulated run of the same kernel select the identical communication
// schedule. Every rank computes each collective's schedule independently
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
// — and stays for the callers outside this module's tests (the benchmark,
// hetcalibrate).
func NewCollectives(c *Comm, d distribution.Distribution) *Collectives {
	return NewCollectivesKind(c, d, c.Broadcast())
}

// NewCollectivesKind binds a rank's endpoint with an explicit broadcast
// algorithm.
func NewCollectivesKind(c *Comm, _ distribution.Distribution, kind sim.BroadcastKind) *Collectives {
	return &Collectives{c: c, kind: kind}
}

// bcastTargets returns the receivers minus the root, deduplicated with
// order preserved — the broadcast chain every participant derives
// identically.
func bcastTargets(root int, receivers []int) []int {
	var targets []int
	seen := map[int]struct{}{root: {}}
	for _, r := range receivers {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			targets = append(targets, r)
		}
	}
	return targets
}

// Bcast delivers data from root to every receiver under the collective's
// algorithm and returns the payload at each participant (root included).
// Every rank in {root} ∪ receivers must call it with identical arguments;
// rows is the payload's row count, which receivers need up front to drive
// the segmented-ring pipeline. Ranks outside the participant set must not
// call.
func (co *Collectives) Bcast(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	me := co.c.Rank()
	targets := bcastTargets(root, receivers)
	if me == root && len(targets) == 0 {
		return data
	}
	switch co.kind {
	case sim.StarBroadcast, sim.RingBroadcast, sim.TreeBroadcast:
		parent, children := bcastSchedule(co.kind, root, targets)
		if me != root {
			p, ok := parent[me]
			if !ok {
				panic(fmt.Sprintf("engine: rank %d called Bcast %q without being a participant", me, tag))
			}
			data = co.c.Recv(p, tag)
		}
		for _, child := range children[me] {
			co.c.Send(child, tag, data)
		}
		return data
	case sim.SegmentedRingBroadcast:
		return co.segRingBcast(tag, root, targets, data, rows)
	default:
		panic(fmt.Sprintf("engine: unknown broadcast kind %d", co.kind))
	}
}

// bcastSchedule derives each participant's parent and ordered children for
// the star, ring and binomial-tree broadcasts. The tree replays exactly the
// round structure sim.Cluster.Broadcast uses, so the real message pattern
// is the one the simulator prices.
func bcastSchedule(kind sim.BroadcastKind, root int, targets []int) (parent map[int]int, children map[int][]int) {
	parent = make(map[int]int, len(targets))
	children = make(map[int][]int, len(targets)+1)
	switch kind {
	case sim.StarBroadcast:
		for _, t := range targets {
			parent[t] = root
			children[root] = append(children[root], t)
		}
	case sim.RingBroadcast:
		prev := root
		for _, t := range targets {
			parent[t] = prev
			children[prev] = append(children[prev], t)
			prev = t
		}
	case sim.TreeBroadcast:
		informed := []int{root}
		pending := append([]int(nil), targets...)
		for len(pending) > 0 {
			n := len(informed)
			for k := 0; k < n && len(pending) > 0; k++ {
				src := informed[k]
				dst := pending[0]
				pending = pending[1:]
				parent[dst] = src
				children[src] = append(children[src], dst)
				informed = append(informed, dst)
			}
		}
	default:
		panic(fmt.Sprintf("engine: no point-to-point schedule for kind %d", kind))
	}
	return parent, children
}

// segRingBcast pipelines the payload along the ring in row segments: while
// a node forwards segment s, its predecessor already sends it segment s+1
// — the real counterpart of sim's SegmentedRingBroadcast (goroutines
// provide the overlap the simulator models). Segments are row slices, at
// most sim.BroadcastSegments of them and never more than the payload has
// rows.
func (co *Collectives) segRingBcast(tag string, root int, targets []int, data *matrix.Dense, rows int) *matrix.Dense {
	me := co.c.Rank()
	segs := sim.BroadcastSegments
	if rows < segs {
		segs = rows
	}
	if segs < 1 {
		segs = 1
	}
	chain := append([]int{root}, targets...)
	idx := -1
	for i, n := range chain {
		if n == me {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("engine: rank %d called Bcast %q without being a participant", me, tag))
	}
	if idx == 0 {
		for s := 0; s < segs; s++ {
			lo, hi := s*rows/segs, (s+1)*rows/segs
			_, cols := data.Dims()
			co.c.Send(chain[1], fmt.Sprintf("%s/s%d", tag, s), data.Slice(lo, hi, 0, cols))
		}
		return data
	}
	var parts []*matrix.Dense
	for s := 0; s < segs; s++ {
		seg := co.c.Recv(chain[idx-1], fmt.Sprintf("%s/s%d", tag, s))
		if idx+1 < len(chain) {
			co.c.Send(chain[idx+1], fmt.Sprintf("%s/s%d", tag, s), seg)
		}
		parts = append(parts, seg)
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

// ReduceSum performs an element-wise sum reduction of one matrix per
// participant, delivered at root; every participant passes its
// contribution and all but the root receive nil back. The reduction runs
// over a binomial tree on list positions, so the summation order is a
// deterministic function of the participant list — identical on every run
// and for every broadcast kind.
func (co *Collectives) ReduceSum(tag string, root int, participants []int, mine *matrix.Dense) *matrix.Dense {
	sp := co.c.Phase("reduce " + tag)
	defer co.c.EndPhase(sp)
	me := co.c.Rank()
	idx := -1
	for i, n := range participants {
		if n == me {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("engine: rank %d called ReduceSum %q without being a participant", me, tag))
	}
	acc := mine.Clone()
	n := len(participants)
	for offset := 1; offset < n; offset *= 2 {
		if idx&offset != 0 {
			co.c.Send(participants[idx-offset], fmt.Sprintf("%s/o%d", tag, offset), acc)
			acc = nil
			break
		}
		if idx+offset < n {
			part := co.c.Recv(participants[idx+offset], fmt.Sprintf("%s/o%d", tag, offset))
			addInto(acc, part)
		}
	}
	if idx == 0 {
		if participants[0] != root {
			co.c.Send(root, tag+"/root", acc)
			return nil
		}
		return acc
	}
	if me == root && participants[0] != root {
		return co.c.Recv(participants[0], tag+"/root")
	}
	return nil
}

// addInto accumulates src into dst element-wise.
func addInto(dst, src *matrix.Dense) {
	r, c := dst.Dims()
	sr, sc := src.Dims()
	if r != sr || c != sc {
		panic(fmt.Sprintf("engine: reduce shape mismatch %d×%d vs %d×%d", r, c, sr, sc))
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst.Add(i, j, src.At(i, j))
		}
	}
}
