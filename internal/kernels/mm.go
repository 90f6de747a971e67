package kernels

import (
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
)

// SimulateMM runs the blocked outer-product matrix multiplication C = A·B
// of §3.1 on an nb×nb block matrix under the given distribution: at step k
// the owners of block column k of A broadcast their blocks horizontally and
// the owners of block row k of B broadcast theirs vertically, then every
// processor updates all of its C blocks with one rank-r contribution.
//
// All three matrices share the distribution (the ScaLAPACK convention), so
// the receivers of each broadcast are exactly the processors owning blocks
// in the corresponding matrix row/column — which, for distributions that
// honour the grid pattern, are the processor's grid row/column, and for the
// Kalinov–Lastovetsky distribution may be larger sets (its extra-neighbour
// penalty appears here with no special-casing).
func SimulateMM(d distribution.Distribution, arr *grid.Arrangement, opts Options) (*Result, error) {
	o := opts.withDefaults()
	g, err := newGridCluster(d, arr, o)
	if err != nil {
		return nil, err
	}

	stepDone := make([]float64, g.lay.Ranks) // completion of the node's previous step
	// ready[node] is when the node may send step k's panels: at once, or
	// after the previous step's barrier under SyncSteps.
	ready := make([]float64, g.lay.Ranks)
	arrived := make([]float64, g.lay.Ranks)
	aArr, bArr := g.panel(), g.panel()
	for k := 0; k < g.lay.NB; k++ {
		// Horizontal broadcasts of the A(·,k) panel, then vertical
		// broadcasts of the B(k,·) panel.
		aMsgs, bMsgs := g.lay.MMPanels(k)
		g.deliver(o, aMsgs, ready, aArr)
		g.deliver(o, bMsgs, ready, bArr)
		// Local rank-r updates of the whole C matrix, once the A block of
		// every owned row and the B block of every owned column have
		// arrived.
		clear(arrived)
		for n, blocks := range g.update(distribution.All, k, aArr, bArr, arrived) {
			if blocks == 0 {
				continue
			}
			stepDone[n] = g.compute(distribution.MMUpdate, k, n, arrived[n], float64(blocks)*g.cycleTime(n))
		}
		if o.SyncSteps {
			barrier := 0.0
			for _, t := range stepDone {
				barrier = maxf(barrier, t)
			}
			for n := range ready {
				ready[n] = barrier
			}
		}
	}
	return g.finish("matmul"), nil
}
