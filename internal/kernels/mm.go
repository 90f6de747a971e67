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

	// Every step updates the whole C matrix, so the per-node block lists
	// are step-independent.
	mine := g.lay.Update(distribution.All, 0)

	stepDone := make([]float64, g.lay.Ranks) // completion of the node's previous step
	// ready[node] is when the node may send step k's panels: at once, or
	// after the previous step's barrier under SyncSteps.
	ready := make([]float64, g.lay.Ranks)
	for k := 0; k < g.lay.NB; k++ {
		// Horizontal broadcasts of the A(·,k) panel, then vertical
		// broadcasts of the B(k,·) panel.
		aMsgs, bMsgs := g.lay.MMPanels(k)
		aArr := g.deliver(o, aMsgs, ready)
		bArr := g.deliver(o, bMsgs, ready)
		// Local rank-r updates, once the A block of every owned row and the
		// B block of every owned column have arrived.
		for n, blocks := range mine {
			if len(blocks) == 0 {
				continue
			}
			arrived := 0.0
			for _, b := range blocks {
				arrived = maxf(arrived, maxf(aArr[b[0]][n], bArr[b[1]][n]))
			}
			stepDone[n] = g.compute(distribution.MMUpdate, k, n, arrived, float64(len(blocks))*g.cycleTime(n))
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
