package hetgrid

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/kernels"
)

// Factorization is the uniform result type of the three factorization
// kernels — LU, Cholesky and QR used to return three different shapes
// (bare packed matrix plus ops, lower factor plus ops, and a QR wrapper);
// Factor and DistributedFactor now return this one type for all of them.
// Kernel-specific accessors (LU, L, R, Q) panic when called on the wrong
// kernel's result, since that is a programming error, not a data error.
type Factorization struct {
	kernel Kernel
	packed *Matrix
	ops    []int             // the replay's count; nil for a distributed run
	dist   Distribution      // the distributed run's requested distribution
	qr     *kernels.QRReplay // non-nil only for QR
}

// Kernel reports which factorization produced this result.
func (f *Factorization) Kernel() Kernel { return f.kernel }

// Packed returns the raw factored matrix: the packed L\U factors for LU,
// the lower factor for Cholesky, the packed Householder form for QR.
func (f *Factorization) Packed() *Matrix { return f.packed }

// Ops returns the per-processor block-operation counts. Factor's are the
// serial replay's own; a DistributedFactor result counts, per rank, the
// blocks of the kernel's region over every step of the requested
// distribution, derived when Ops is called. A run that recovered onto
// survivors is still attributed under the requested distribution.
func (f *Factorization) Ops() []int {
	if f.dist == nil {
		return append([]int(nil), f.ops...)
	}
	lay, err := distribution.NewLayout(f.dist)
	if err != nil {
		return nil // the run validated d; only a later edit by the caller fails here
	}
	return lay.Work(f.kernel.Region(), 0, lay.NB)
}

// require panics unless the factorization came from kernel k.
func (f *Factorization) require(k Kernel, method string) {
	if f.kernel != k {
		panic(fmt.Sprintf("hetgrid: Factorization.%s on a %v result (want %v)", method, f.kernel, k))
	}
}

// LU unpacks the L and U factors. Panics unless Kernel() == LU.
func (f *Factorization) LU() (l, u *Matrix) {
	f.require(LU, "LU")
	return kernels.ExtractLU(f.packed)
}

// L returns the lower Cholesky factor. Panics unless Kernel() == Cholesky.
func (f *Factorization) L() *Matrix {
	f.require(Cholesky, "L")
	return f.packed
}

// R returns QR's upper triangular factor. Panics unless Kernel() == QR.
func (f *Factorization) R() *Matrix {
	f.require(QR, "R")
	return f.qr.R()
}

// Q reconstructs QR's orthogonal factor (O(n³); for verification).
// blockSize is the element block size r used when distributing. Panics
// unless Kernel() == QR.
func (f *Factorization) Q(blockSize int) *Matrix {
	f.require(QR, "Q")
	return f.qr.Q(blockSize)
}

// Factor executes the factorization kernel numerically under d with the
// serial replay (block ownership respected, no concurrency) and returns
// the uniform result type. Supported kernels: LU, Cholesky, QR. Behavior
// is configured with functional options; WithNumerics selects the
// floating-point contract (Strict stays the default).
func Factor(k Kernel, d Distribution, a *Matrix, opts ...Option) (*Factorization, error) {
	mode := applyOptions(opts).exec.Numerics
	var rep *kernels.Replay
	var qr *kernels.QRReplay
	var err error
	switch k {
	case LU:
		rep, err = kernels.ReplayLUNumerics(d, a, mode)
	case Cholesky:
		rep, err = kernels.ReplayCholeskyNumerics(d, a, mode)
	case QR:
		if qr, err = kernels.ReplayQRNumerics(d, a, mode); err == nil {
			rep = &qr.Replay
		}
	default:
		err = fmt.Errorf("hetgrid: %q is not a factorization kernel (want lu, cholesky or qr)", k)
	}
	if err != nil {
		return nil, err
	}
	return &Factorization{kernel: k, packed: rep.C, ops: rep.Ops, qr: qr}, nil
}

// DistributedFactor executes the factorization kernel for real — one
// goroutine per grid processor, all data moving through messages — and
// returns the uniform result type, bit-identical to Factor's. Behavior is
// configured with functional options (WithBroadcast, WithSpans,
// WithParallelism, WithFaults). Supported kernels: LU, Cholesky, QR.
func DistributedFactor(k Kernel, d Distribution, a *Matrix, blockSize int, opts ...Option) (*Factorization, *ExecStats, error) {
	switch k {
	case LU, Cholesky, QR:
	default:
		return nil, nil, fmt.Errorf("hetgrid: %q is not a factorization kernel (want lu, cholesky or qr)", k)
	}
	packed, taus, stats, err := runDistributed(d, k, blockSize, []*Matrix{a}, applyOptions(opts).exec)
	if err != nil {
		return nil, nil, err
	}
	f := &Factorization{kernel: k, packed: packed, dist: d}
	if k == QR {
		f.qr = &kernels.QRReplay{Replay: kernels.Replay{C: packed}, Taus: taus}
	}
	return f, stats, nil
}
