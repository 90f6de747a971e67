package kernels

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// Replay results carry the computed matrix plus per-node attribution of the
// block operations performed "by" each processor, letting tests tie the
// numeric execution to the simulator's cost accounting.
type Replay struct {
	// C is the computed result (product for MM; packed LU factors for LU).
	C *matrix.Dense
	// Ops[node] counts the block operations attributed to node pi·q+pj.
	Ops []int
}

// blockView returns the (bi,bj) r×r block of m as a shared view.
func blockView(m *matrix.Dense, bi, bj, r int) *matrix.Dense {
	return m.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r)
}

// checkBlocking validates that the matrix divides evenly into the
// distribution's block grid and returns the block size.
func checkBlocking(n int, d distribution.Distribution) (r int, err error) {
	nbr, nbc := d.Blocks()
	if nbr != nbc {
		return 0, fmt.Errorf("kernels: square block grid required, got %d×%d", nbr, nbc)
	}
	if n%nbr != 0 {
		return 0, fmt.Errorf("kernels: matrix order %d not divisible into %d block rows", n, nbr)
	}
	return n / nbr, nil
}

// ReplayMMNumerics executes the blocked outer-product multiplication
// C = A·B with block ownership taken from d, attributing each block update
// to its owner. The numeric result is independent of the distribution — the
// property the load-balancing strategies rely on — and tests assert it.
// Every block update runs through matrix.AddMulNumerics under mode, so
// matrix.Fast computes the product under the FMA-fused error-bound
// contract.
func ReplayMMNumerics(d distribution.Distribution, a, b *matrix.Dense, mode matrix.Numerics) (*Replay, error) {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != ac || br != bc || ar != br {
		return nil, fmt.Errorf("kernels: ReplayMMNumerics needs equal square matrices, got %d×%d and %d×%d", ar, ac, br, bc)
	}
	r, err := checkBlocking(ar, d)
	if err != nil {
		return nil, err
	}
	nb, _ := d.Blocks()
	p, q := d.Dims()
	ops := make([]int, p*q)
	c := matrix.New(ar, ar)
	for k := 0; k < nb; k++ {
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				pi, pj := d.Owner(bi, bj)
				ops[pi*q+pj]++
				blockView(c, bi, bj, r).AddMulNumerics(1, blockView(a, bi, k, r), blockView(b, k, bj, r), mode)
			}
		}
	}
	return &Replay{C: c, Ops: ops}, nil
}

// ReplayLUNumerics executes the blocked right-looking LU decomposition
// without pivoting (callers supply diagonally dominant matrices;
// ScaLAPACK's pivoted variant permutes rows across owners, which changes
// nothing about the load-balance accounting this replay exists to
// validate). The result packs L (unit diagonal implicit) below the diagonal
// and U on and above it, exactly like matrix.FactorNoPivot. Each block
// operation — panel factor, triangular solve, trailing update — is
// attributed to the block's owner. The diagonal-block factorization stays
// scalar, while the U-panel triangular solves and the trailing updates run
// under mode.
func ReplayLUNumerics(d distribution.Distribution, a *matrix.Dense, mode matrix.Numerics) (*Replay, error) {
	n, nc := a.Dims()
	if n != nc {
		return nil, fmt.Errorf("kernels: ReplayLUNumerics needs a square matrix, got %d×%d", n, nc)
	}
	r, err := checkBlocking(n, d)
	if err != nil {
		return nil, err
	}
	nb, _ := d.Blocks()
	p, q := d.Dims()
	ops := make([]int, p*q)
	lu := a.Clone()
	charge := func(bi, bj int) {
		pi, pj := d.Owner(bi, bj)
		ops[pi*q+pj]++
	}
	for k := 0; k < nb; k++ {
		// Factor the diagonal block in place (unblocked, no pivoting).
		diag := blockView(lu, k, k, r)
		if err := matrix.FactorNoPivot(diag); err != nil {
			return nil, fmt.Errorf("kernels: step %d: %w", k, err)
		}
		charge(k, k)
		// Panel: L(bi,k) = A(bi,k) · U(k,k)^{-1}.
		for bi := k + 1; bi < nb; bi++ {
			if err := blockView(lu, bi, k, r).SolveUpperRight(diag); err != nil {
				return nil, fmt.Errorf("kernels: step %d row %d: %w", k, bi, err)
			}
			charge(bi, k)
		}
		// U panel: U(k,bj) = L(k,k)^{-1} · A(k,bj).
		for bj := k + 1; bj < nb; bj++ {
			u := blockView(lu, k, bj, r)
			diag.SolveLowerUnitNumerics(u, mode)
			charge(k, bj)
		}
		// Trailing update: A(bi,bj) -= L(bi,k) · U(k,bj).
		for bi := k + 1; bi < nb; bi++ {
			for bj := k + 1; bj < nb; bj++ {
				blockView(lu, bi, bj, r).AddMulNumerics(-1, blockView(lu, bi, k, r), blockView(lu, k, bj, r), mode)
				charge(bi, bj)
			}
		}
	}
	return &Replay{C: lu, Ops: ops}, nil
}

// ExtractLU splits a packed LU matrix into explicit L and U factors.
func ExtractLU(packed *matrix.Dense) (l, u *matrix.Dense) {
	n, _ := packed.Dims()
	l = matrix.Identity(n)
	u = matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, packed.At(i, j))
			} else {
				u.Set(i, j, packed.At(i, j))
			}
		}
	}
	return l, u
}
