// Package kernels simulates and replays the dense linear algebra kernels of
// the paper — the outer-product matrix multiplication and the right-looking
// LU decomposition — on a heterogeneous 2D processor grid under an
// arbitrary block distribution.
//
// Two complementary modes are provided:
//
//   - Simulate…: virtual-time execution over internal/sim, producing
//     makespans, compute lower bounds and traffic statistics. This is the
//     "simulation measurements for a heterogeneous network of workstations"
//     substrate of the paper's abstract.
//   - Replay…: real numeric execution of the same block algorithm with
//     every block operation attributed to its owner, verifying that the
//     result is independent of the distribution and that the per-processor
//     operation counts match what the simulator charges.
package kernels

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/obs"
	"hetgrid/internal/sim"
)

// Options configures a kernel simulation.
type Options struct {
	// Net is the communication fabric model.
	Net sim.Config
	// Broadcast selects the one-to-many algorithm for panel broadcasts.
	Broadcast sim.BroadcastKind
	// BlockBytes is the message size of one r×r block (8·r² for float64).
	BlockBytes float64
	// SyncSteps inserts a barrier between outer-product steps: step k's
	// broadcasts start only after every processor finished step k−1. This
	// reproduces the paper's per-step analysis T = Σ_k max_ij(...); without
	// it the pipelined schedule lets communication run ahead.
	SyncSteps bool
	// FactorCost and SolveCost scale the per-block cost of the LU panel
	// factorization and triangular solve relative to a block update
	// (defaults 1).
	FactorCost, SolveCost float64
	// EnableTrace records every simulated operation as a span, compute
	// spans named as the engine names the same section; Result.Spans
	// carries them.
	EnableTrace bool
	// Pivoting charges the LU simulation for partial pivoting: a
	// max-reduction among the owners of the active block column at every
	// step, plus the exchange of the pivot row with the diagonal row
	// across the trailing columns. The pivot row is not known statically,
	// so the model deterministically assumes the worst case — the last
	// active block row — making the result a pessimistic bound; the paper's
	// ScaLAPACK baseline pivots, the cost model here shows what that adds.
	Pivoting bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FactorCost <= 0 {
		out.FactorCost = 1
	}
	if out.SolveCost <= 0 {
		out.SolveCost = 1
	}
	return out
}

// Result reports one simulated kernel execution.
type Result struct {
	// Kernel and Distribution identify the run.
	Kernel, Distribution string
	// Makespan is the simulated completion time.
	Makespan float64
	// CompBound is the busiest processor's pure compute time — no schedule
	// under this distribution can beat it.
	CompBound float64
	// Stats carries traffic and utilization counters.
	Stats *sim.Stats
	// Spans holds the recorded operations in issue order, virtual time
	// units, when Options.EnableTrace was set; nil otherwise.
	Spans []obs.Span
}

// Efficiency returns CompBound/Makespan: 1.0 means communication was fully
// hidden behind the (balanced) computation.
func (r *Result) Efficiency() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.CompBound / r.Makespan
}

// gridCluster couples a distribution's step schedule with a simulated
// cluster; node ids are the layout's flat ranks pi·q+pj.
type gridCluster struct {
	name  string
	lay   *distribution.Layout
	arr   *grid.Arrangement
	c     *sim.Cluster
	count []int // per node: blocks of the current rooted count or update walk
}

func newGridCluster(d distribution.Distribution, arr *grid.Arrangement, o Options) (*gridCluster, error) {
	p, q := d.Dims()
	if arr.P != p || arr.Q != q {
		return nil, fmt.Errorf("kernels: %d×%d distribution vs %d×%d arrangement", p, q, arr.P, arr.Q)
	}
	// NewLayout also guards against broken user-supplied Distribution
	// implementations before they corrupt the schedule (built-ins always
	// pass).
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return nil, err
	}
	c, err := sim.NewCluster(lay.Ranks, o.Net)
	if err != nil {
		return nil, err
	}
	if o.EnableTrace {
		c.EnableTrace()
	}
	return &gridCluster{name: d.Name(), lay: lay, arr: arr, c: c, count: make([]int, lay.Ranks)}, nil
}

// compute charges node dur of CPU for section sec of step k; a traced run
// names the span as the engine does (the untraced one formats nothing).
func (g *gridCluster) compute(sec distribution.Section, k, node int, ready, dur float64) float64 {
	if g.c.Spans() != nil {
		g.c.SetLabel(sec.At(k))
	}
	return g.c.Compute(node, ready, dur)
}

// finish assembles a Result from the cluster state.
func (g *gridCluster) finish(kernel string) *Result {
	stats := g.c.Snapshot()
	return &Result{
		Kernel:       kernel,
		Distribution: g.name,
		Makespan:     stats.Makespan,
		CompBound:    stats.CompBound,
		Stats:        stats,
		Spans:        g.c.Spans(),
	}
}

// cycleTime returns the cycle-time of a node id.
func (g *gridCluster) cycleTime(node int) float64 {
	return g.arr.T[node/g.arr.Q][node%g.arr.Q]
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// panel returns a buffer of per-node arrival times for every block of a
// panel: NB rows of one slot per node, row i for panel block i.
func (g *gridCluster) panel() []float64 { return make([]float64, g.lay.NB*g.lay.Ranks) }

// row returns panel block i's arrival times in a buffer from panel.
func (g *gridCluster) row(arrivals []float64, i int) []float64 {
	return arrivals[i*g.lay.Ranks : (i+1)*g.lay.Ranks]
}

// send prices one schedule message leaving its root at time at: the
// stacked blocks reach the receivers under the configured broadcast, whose
// arrival times land in arrival, one slot per node.
func (g *gridCluster) send(o Options, m distribution.Msg, at float64, arrival []float64) {
	g.c.Broadcast(o.Broadcast, m.Root, m.Recv, float64(len(m.Blocks))*o.BlockBytes, at, arrival)
}

// deliver prices a panel's messages in order, each leaving its root at
// ready[root] — when the root's panel blocks are done — and writes every
// carried block's arrival times into its row of arrivals (a panel buffer).
func (g *gridCluster) deliver(o Options, msgs []distribution.Msg, ready, arrivals []float64) {
	for _, m := range msgs {
		first := g.row(arrivals, m.Blocks[0])
		g.send(o, m, ready[m.Root], first)
		for _, i := range m.Blocks[1:] {
			copy(g.row(arrivals, i), first)
		}
	}
}

// rooted counts, per node, the blocks it roots among a panel's messages —
// the panel blocks it owns, which its factor or solve section works on. The
// counts are valid until the next rooted or update call.
func (g *gridCluster) rooted(msgs []distribution.Msg) []int {
	clear(g.count)
	for _, m := range msgs {
		g.count[m.Root] += len(m.Blocks)
	}
	return g.count
}

// update walks a step's update region — region r as it stands at step at
// — once. Per node it counts the blocks the node updates and raises
// ready[node] to the latest arrival, over those blocks (bi, bj), of row bi
// of rowArr and row bj of colArr: the row-panel and column-panel blocks
// the update reads. It returns the counts, valid until the next walk.
func (g *gridCluster) update(r distribution.Region, at int, rowArr, colArr, ready []float64) []int {
	lay := g.lay
	clear(g.count)
	for bi := 0; bi < lay.NB; bi++ {
		lo, hi := r.Cols(bi, at, lay.NB)
		fromRow := g.row(rowArr, bi)
		for bj := lo; bj < hi; bj++ {
			n := lay.Owner(bi, bj)
			g.count[n]++
			ready[n] = maxf(ready[n], maxf(fromRow[n], colArr[bj*lay.Ranks+n]))
		}
	}
	return g.count
}
