package kernels

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/matrix"
)

// SimulateCholesky runs the right-looking blocked Cholesky factorization
// A = L·Lᵀ (lower variant) on an nb×nb block matrix. It is the third
// ScaLAPACK factorization alongside LU and QR; its structure matches LU
// with a symmetric trailing update restricted to the lower triangle. At
// step k:
//
//  1. the diagonal owner factors A(k,k);
//  2. the factored diagonal is broadcast down block column k, whose owners
//     apply triangular solves to their L(i,k) panels;
//  3. each L(i,k) block is broadcast to the owners that need it for the
//     trailing update — owners of row i (columns k+1..i) and of column i
//     (rows i..nb-1), the symmetric communication pattern;
//  4. owners update their lower-triangle trailing blocks
//     A(i,j) -= L(i,k)·L(j,k)ᵀ, k < j ≤ i.
func SimulateCholesky(d distribution.Distribution, arr *grid.Arrangement, opts Options) (*Result, error) {
	o := opts.withDefaults()
	g, err := newGridCluster(d, arr, o)
	if err != nil {
		return nil, err
	}
	lay := g.lay
	updDone := make([]float64, lay.Ranks)
	diagArr, solveDone := make([]float64, lay.Ranks), make([]float64, lay.Ranks)
	lArr := g.panel()

	for k := 0; k < lay.NB; k++ {
		diagDown, lMsgs := lay.CholeskyPanels(k)

		// 1. Diagonal Cholesky factor.
		diagOwner := diagDown.Root
		diagDone := g.compute(distribution.CholFactor, k, diagOwner, updDone[diagOwner], o.FactorCost*g.cycleTime(diagOwner))

		// 2. Broadcast the diagonal down the column, then panel solves.
		g.send(o, diagDown, diagDone, diagArr)
		clear(solveDone)
		for n, rows := range g.rooted(lMsgs) {
			if rows == 0 {
				continue
			}
			start := maxf(diagArr[n], updDone[n])
			solveDone[n] = g.compute(distribution.CholSolve, k, n, start, float64(rows)*o.SolveCost*g.cycleTime(n))
		}

		// 3. Broadcast each panel block to its needers, panel-aggregated.
		g.deliver(o, lMsgs, solveDone, lArr)

		// 4. Symmetric trailing update on the lower triangle of step k+1's
		// trailing matrix; block (bi, bj) reads L(bi,k) and L(bj,k). The
		// walk raises updDone[node] to when the node's blocks are all in.
		for n, blocks := range g.update(distribution.TrailingLower, k+1, lArr, lArr, updDone) {
			if blocks == 0 {
				continue
			}
			updDone[n] = g.compute(distribution.CholUpdate, k, n, updDone[n], float64(blocks)*g.cycleTime(n))
		}
	}
	return g.finish("cholesky"), nil
}

// ReplayCholeskyNumerics executes the blocked right-looking Cholesky
// factorization numerically with block ownership from d, returning the
// lower factor L (upper triangle zero) and per-node block-operation counts.
// The input must be symmetric positive definite. Diagonal factorization and
// panel solves stay Strict, the trailing symmetric updates run under mode.
func ReplayCholeskyNumerics(d distribution.Distribution, a *matrix.Dense, mode matrix.Numerics) (*Replay, error) {
	n, nc := a.Dims()
	if n != nc {
		return nil, fmt.Errorf("kernels: ReplayCholeskyNumerics needs a square matrix, got %d×%d", n, nc)
	}
	r, err := checkBlocking(n, d)
	if err != nil {
		return nil, err
	}
	nb, _ := d.Blocks()
	p, q := d.Dims()
	ops := make([]int, p*q)
	charge := func(bi, bj int) {
		pi, pj := d.Owner(bi, bj)
		ops[pi*q+pj]++
	}
	work := a.Clone()
	for k := 0; k < nb; k++ {
		diag := blockView(work, k, k, r)
		f, err := matrix.FactorCholesky(diag.Clone())
		if err != nil {
			return nil, fmt.Errorf("kernels: step %d: %w", k, err)
		}
		diag.CopyFrom(f.L)
		charge(k, k)
		lkkT := f.L.T()
		for bi := k + 1; bi < nb; bi++ {
			// L(i,k) = A(i,k) · L(k,k)^{-T}: solve X·Lᵀ = A.
			if err := blockView(work, bi, k, r).SolveUpperRight(lkkT); err != nil {
				return nil, fmt.Errorf("kernels: step %d row %d: %w", k, bi, err)
			}
			charge(bi, k)
		}
		for bi := k + 1; bi < nb; bi++ {
			li := blockView(work, bi, k, r)
			for bj := k + 1; bj <= bi; bj++ {
				lj := blockView(work, bj, k, r)
				blockView(work, bi, bj, r).AddMulNumerics(-1, li, lj.T(), mode)
				charge(bi, bj)
			}
		}
	}
	// Zero the strict upper triangle (the algorithm never wrote it, but the
	// input's upper values linger in the untouched blocks).
	l := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, work.At(i, j))
		}
	}
	return &Replay{C: l, Ops: ops}, nil
}
