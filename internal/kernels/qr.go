package kernels

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// QRReplay is the result of ReplayQRNumerics, which executes the blocked
// right-looking Householder QR factorization numerically under the given
// distribution: at step k the owners of block column k factor the tall
// panel A[k·r:, k·r:(k+1)·r], and the reflectors are applied to every
// trailing block column. Ownership is charged at block granularity exactly
// like the simulator's cost model (panel blocks at FactorCost, trailing
// blocks at update cost).
//
// The result packs R in the upper triangle and the Householder vectors
// below the diagonal; Taus carries the reflector scalings per panel. The
// reflectors are those of an unblocked Householder QR of the full matrix
// applied panel by panel in compact-WY form, so the factors agree with
// matrix.FactorQR's to rounding, which tests exploit.
type QRReplay struct {
	Replay
	// Taus[k] holds the Householder scalings of panel k.
	Taus [][]float64
}

// ReplayQRNumerics factors a square matrix; see QRReplay. The numerics
// contract is accepted for API symmetry with the other kernels. The panel
// factor is panel work, which the contract keeps Strict on every kernel
// (reflector choices, like pivot choices, are made on Strict arithmetic),
// and the reflector application — level-3 since it became compact-WY
// products through the packed GEMM — stays Strict as well, so both modes
// execute identically; Fast-mode callers still get the contract they asked
// for, since Strict trivially satisfies the error bound.
func ReplayQRNumerics(d distribution.Distribution, a *matrix.Dense, _ matrix.Numerics) (*QRReplay, error) {
	n, nc := a.Dims()
	if n != nc {
		return nil, fmt.Errorf("kernels: ReplayQRNumerics needs a square matrix, got %d×%d", n, nc)
	}
	r, err := checkBlocking(n, d)
	if err != nil {
		return nil, err
	}
	nb, _ := d.Blocks()
	p, q := d.Dims()
	ops := make([]int, p*q)
	work := a.Clone()
	taus := make([][]float64, nb)
	for k := 0; k < nb; k++ {
		// Panel factorization over the full trailing column slab, then Qᵀ
		// of the panel applied to all trailing block columns at once: each
		// column of the product depends on that column alone, so this is
		// what applying it block column by block column gives, bit for bit.
		panel := work.Slice(k*r, n, k*r, (k+1)*r)
		f := matrix.FactorQR(panel)
		panel.CopyFrom(f.Packed())
		taus[k] = f.Tau()
		f.QTMul(work.Slice(k*r, n, (k+1)*r, n))
		for bi := k; bi < nb; bi++ {
			for bj := k; bj < nb; bj++ {
				pi, pj := d.Owner(bi, bj)
				ops[pi*q+pj]++
			}
		}
	}
	return &QRReplay{Replay: Replay{C: work, Ops: ops}, Taus: taus}, nil
}

// R extracts the upper triangular factor from the replay.
func (f *QRReplay) R() *matrix.Dense {
	n, _ := f.C.Dims()
	out := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out.Set(i, j, f.C.At(i, j))
		}
	}
	return out
}

// Q reconstructs the full orthogonal factor by applying the stored panel
// reflectors to the identity in reverse order. Cost is O(n³); intended for
// verification.
func (f *QRReplay) Q(blockSize int) *matrix.Dense {
	n, _ := f.C.Dims()
	r := blockSize
	qm := matrix.Identity(n)
	for k := n/r - 1; k >= 0; k-- {
		panel := f.C.Slice(k*r, n, k*r, (k+1)*r)
		matrix.QRFromPacked(panel, f.Taus[k]).QMul(qm.Slice(k*r, n, 0, n))
	}
	return qm
}
