package kernels

import (
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
)

// pivotMsgBytes is the size of one pivot-search message under
// Options.Pivoting: a value and an index.
const pivotMsgBytes = 16

// SimulateLU runs the right-looking blocked LU decomposition of §3.2 on an
// nb×nb block matrix. At step k:
//
//  1. the owner of the diagonal block factors it and broadcasts it down the
//     processor column owning block column k;
//  2. the owners of the sub-diagonal blocks of column k compute their L
//     blocks and broadcast them horizontally to the processors owning the
//     trailing rows (increasing-ring in ScaLAPACK; configurable here);
//  3. the owners of block row k right of the diagonal apply the triangular
//     solve to their U blocks and broadcast them vertically;
//  4. every processor applies the rank-r update to its owned blocks of the
//     trailing submatrix.
//
// Because the active region shrinks as k advances, the placement *order* of
// panel rows/columns matters (§3.2.2): an interleaved panel keeps every
// processor busy in the tail of the factorization where a contiguous one
// leaves whole processor rows/columns idle.
//
// The same code serves QR cost simulation by raising SolveCost and
// FactorCost: the communication structure of the ScaLAPACK QR is identical
// (panel factor, horizontal broadcast of the Householder panel, trailing
// update), with roughly doubled flop counts.
func SimulateLU(d distribution.Distribution, arr *grid.Arrangement, opts Options) (*Result, error) {
	o := opts.withDefaults()
	g, err := newGridCluster(d, arr, o)
	if err != nil {
		return nil, err
	}

	lay := g.lay
	nb, nodes := lay.NB, lay.Ranks
	// updDone[node] tracks when the node's copy of the trailing matrix
	// incorporates all updates through the previous step; per-node CPU
	// serialization in sim handles intra-node ordering, and panel
	// dependencies are tracked explicitly below.
	updDone := make([]float64, nodes)

	pivArr, diagArr := make([]float64, nodes), make([]float64, nodes)
	lDone, uDone := make([]float64, nodes), make([]float64, nodes)
	lArr, uArr := g.panel(), g.panel()
	for k := 0; k < nb; k++ {
		diagDown, diagRight, lMsgs, uMsgs := lay.LUPanels(k)
		diagOwner := diagDown.Root

		// 0. Partial pivoting (optional): the owners of the active part of
		// block column k send their local maxima to the diagonal owner,
		// which broadcasts the winner back; then the diagonal block row and
		// the (worst-case: last) pivot block row are exchanged across the
		// trailing columns.
		if o.Pivoting {
			// Reduce to the diagonal owner (its own maximum is local: a
			// self-send is free)…
			searchers := diagDown.Recv
			at := updDone[diagOwner]
			for _, n := range searchers {
				arrive := g.c.Send(n, diagOwner, pivotMsgBytes, updDone[n])
				at = maxf(at, arrive)
			}
			// …and broadcast the pivot index back (the diagonal owner and
			// non-searchers read at).
			g.c.Broadcast(o.Broadcast, diagOwner, searchers, pivotMsgBytes, at, pivArr)
			// Swap the diagonal block row with the worst-case pivot block
			// row (the last active one) across all trailing columns.
			if pr := nb - 1; pr > k {
				for bj := k; bj < nb; bj++ {
					a := lay.Owner(k, bj)
					b := lay.Owner(pr, bj)
					if a == b {
						continue
					}
					ready := maxf(pivArr[a], pivArr[b])
					g.c.Send(a, b, o.BlockBytes, ready)
					g.c.Send(b, a, o.BlockBytes, ready)
				}
				// The diagonal owner resumes once its swaps are delivered;
				// approximating with its NIC availability keeps the model
				// conservative without tracking every block individually.
				updDone[diagOwner] = maxf(updDone[diagOwner], at)
			}
		}

		// 1. Diagonal factor, broadcast down block column k's owners (they
		// need it for their L blocks).
		diagDone := g.compute(distribution.LUFactor, k, diagOwner, updDone[diagOwner], o.FactorCost*g.cycleTime(diagOwner))
		g.send(o, diagDown, diagDone, diagArr)

		// 2. L panel: each owner computes its sub-diagonal blocks of
		// column k, then broadcasts them to the owners of the trailing part
		// of their block rows. The diagonal block's L factor travels along
		// row k the same way, for the U solve.
		clear(lDone)
		for n, rows := range g.rooted(lMsgs) {
			if rows == 0 {
				continue
			}
			start := maxf(diagArr[n], updDone[n])
			lDone[n] = g.compute(distribution.LULSolve, k, n, start, float64(rows)*o.FactorCost*g.cycleTime(n))
		}
		g.deliver(o, lMsgs, lDone, lArr)
		g.send(o, diagRight, diagDone, g.row(lArr, k))

		// 3. U panel: triangular solves on block row k, then vertical
		// broadcasts to trailing column owners.
		clear(uDone)
		for n, cols := range g.rooted(uMsgs) {
			if cols == 0 {
				continue
			}
			start := maxf(g.row(lArr, k)[n], updDone[n])
			uDone[n] = g.compute(distribution.LUUSolve, k, n, start, float64(cols)*o.SolveCost*g.cycleTime(n))
		}
		g.deliver(o, uMsgs, uDone, uArr)

		// 4. Trailing rank-r update on blocks (bi, bj), bi,bj > k — the
		// trailing region of step k+1. The walk raises updDone[node] to when
		// the node's L and U blocks are all in.
		for n, blocks := range g.update(distribution.Trailing, k+1, lArr, uArr, updDone) {
			if blocks == 0 {
				continue
			}
			updDone[n] = g.compute(distribution.LUUpdate, k, n, updDone[n], float64(blocks)*g.cycleTime(n))
		}
	}
	return g.finish("lu"), nil
}

// LUOpCounts returns the number of block operations of each kind charged to
// every node by SimulateLU, for cross-checking against the numeric replay:
// [factor, solve, update] per node (node = pi·q + pj).
func LUOpCounts(d distribution.Distribution) (factor, solve, update []int, err error) {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return nil, nil, nil, err
	}
	factor = make([]int, lay.Ranks)
	solve = make([]int, lay.Ranks)
	update = make([]int, lay.Ranks)
	for k := 0; k < lay.NB; k++ {
		factor[lay.Owner(k, k)]++
		below, right, upd := lay.ColBelow(k), lay.RowRight(k), lay.Update(distribution.Trailing, k)
		for n := range factor {
			factor[n] += len(below[n])
			solve[n] += len(right[n])
			update[n] += len(upd[n])
		}
	}
	return factor, solve, update, nil
}
