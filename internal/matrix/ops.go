package matrix

import "fmt"

// Mul returns the product a*b as a newly allocated matrix.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	out.AddMul(1, a, b)
	return out
}

// AddMul accumulates m += alpha * a * b. This is the GEMM kernel the
// distributed outer-product algorithm replays block by block. Large updates
// route through the packed, register-blocked kernel (see gemm.go); small
// ones run the scalar reference. Both accumulate each output element in the
// identical increasing-k order, so the choice is invisible: results are bit
// for bit the same either way, and NaN/Inf propagate per IEEE semantics
// (0·NaN is NaN). alpha == 0 is a no-op by BLAS convention — the product is
// never formed.
func (m *Dense) AddMul(alpha float64, a, b *Dense) {
	m.checkAddMul(a, b)
	if alpha == 0 {
		return
	}
	m.addMulDispatch(alpha, a, b)
}

// Sub returns a - b as a newly allocated matrix.
func Sub(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: Sub %d×%d - %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		ar := a.data[i*a.stride : i*a.stride+a.cols]
		br := b.data[i*b.stride : i*b.stride+b.cols]
		or := out.data[i*out.stride : i*out.stride+out.cols]
		for j := range ar {
			or[j] = ar[j] - br[j]
		}
	}
	return out
}

// trsmBlock is the panel height of the blocked triangular solves: diagonal
// blocks this size are solved by substitution, everything off-diagonal is a
// GEMM update through the packed kernel.
const trsmBlock = 64

// SolveLowerUnit solves L*x = b in place over the columns of b, where L is
// unit lower triangular (diagonal treated as 1; strictly-upper part of the
// receiver ignored). b is overwritten with the solution.
//
// The implementation is a right-looking blocked TRSM: each trsmBlock
// diagonal block is solved by forward substitution and the rows below it
// receive one rank-trsmBlock GEMM update. Per output element the update
// terms still arrive in strictly increasing k order with the same rounding
// as plain substitution, so the blocked solve is bit-identical to the
// scalar reference (SolveLowerUnitScalar). Zero multipliers are not
// skipped: 0·NaN is NaN, per IEEE semantics.
func (m *Dense) SolveLowerUnit(b *Dense) {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveLowerUnit %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	m.solveLowerUnitMode(b, Strict)
}

// solveLowerUnitMode is the blocked forward solve under an explicit
// numerics contract: the off-diagonal rank-trsmBlock GEMM updates run
// under mode, the diagonal substitutions stay scalar. Strict is exactly
// the historical SolveLowerUnit. Shapes were validated by the caller.
func (m *Dense) solveLowerUnitMode(b *Dense, mode Numerics) {
	n := m.rows
	if n <= trsmBlock || b.cols < gemmNR {
		m.solveLowerUnitRange(b, 0, n)
		return
	}
	for k0 := 0; k0 < n; k0 += trsmBlock {
		k1 := min(k0+trsmBlock, n)
		m.solveLowerUnitRange(b, k0, k1)
		if k1 < n {
			// b[k1:n] -= L[k1:n, k0:k1] · b[k0:k1]
			b.Slice(k1, n, 0, b.cols).AddMulNumerics(-1, m.Slice(k1, n, k0, k1), b.Slice(k0, k1, 0, b.cols), mode)
		}
	}
}

// solveLowerUnitRange forward-substitutes rows [k0,k1) of b against the
// diagonal block m[k0:k1, k0:k1], assuming rows before k0 are already solved
// and their contribution already subtracted.
func (m *Dense) solveLowerUnitRange(b *Dense, k0, k1 int) {
	for i := k0 + 1; i < k1; i++ {
		li := m.data[i*m.stride : i*m.stride+i]
		bi := b.data[i*b.stride : i*b.stride+b.cols]
		for k := k0; k < i; k++ {
			l := li[k]
			bk := b.data[k*b.stride : k*b.stride+b.cols]
			for j := range bi {
				bi[j] -= l * bk[j]
			}
		}
	}
}

// SolveLowerUnitScalar is the unblocked reference forward substitution,
// kept selectable for testing and benchmarking; SolveLowerUnit is
// bit-identical to it.
func (m *Dense) SolveLowerUnitScalar(b *Dense) {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveLowerUnit %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	m.solveLowerUnitRange(b, 0, m.rows)
}

// SolveUpper solves U*x = b in place over the columns of b, where U is upper
// triangular (strictly-lower part of the receiver ignored). Returns
// ErrSingular, with b unmodified, if a diagonal entry is zero.
//
// The implementation is a left-looking blocked TRSM: proceeding from the
// last trsmBlock panel upward, each panel first receives its trailing GEMM
// update and is then solved by backward substitution. Zero entries are not
// skipped (0·NaN is NaN). The blocked accumulation order differs from the
// unblocked SolveUpperScalar in the last ulp — both are deterministic, and
// every consumer in the repository uses this path on both sides of its
// comparisons.
func (m *Dense) SolveUpper(b *Dense) error {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveUpper %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	n := m.rows
	for i := 0; i < n; i++ {
		if m.data[i*m.stride+i] == 0 {
			return ErrSingular
		}
	}
	if n <= trsmBlock || b.cols < gemmNR {
		m.solveUpperRange(b, 0, n)
		return nil
	}
	first := (n - 1) / trsmBlock * trsmBlock
	for k0 := first; k0 >= 0; k0 -= trsmBlock {
		k1 := min(k0+trsmBlock, n)
		if k1 < n {
			// b[k0:k1] -= U[k0:k1, k1:n] · b[k1:n]
			b.Slice(k0, k1, 0, b.cols).AddMul(-1, m.Slice(k0, k1, k1, n), b.Slice(k1, n, 0, b.cols))
		}
		m.solveUpperRange(b, k0, k1)
	}
	return nil
}

// solveUpperRange backward-substitutes rows [k0,k1) of b against the
// diagonal block m[k0:k1, k0:k1], assuming rows at and beyond k1 are solved
// and their contribution already subtracted. Diagonals were checked by the
// caller.
func (m *Dense) solveUpperRange(b *Dense, k0, k1 int) {
	for i := k1 - 1; i >= k0; i-- {
		d := m.data[i*m.stride+i]
		ui := m.data[i*m.stride : i*m.stride+k1]
		bi := b.data[i*b.stride : i*b.stride+b.cols]
		for k := i + 1; k < k1; k++ {
			u := ui[k]
			bk := b.data[k*b.stride : k*b.stride+b.cols]
			for j := range bi {
				bi[j] -= u * bk[j]
			}
		}
		for j := range bi {
			bi[j] /= d
		}
	}
}

// SolveUpperScalar is the unblocked reference backward substitution, kept
// selectable for testing and benchmarking. Like SolveUpper it rejects
// singular diagonals up front, leaving b unmodified.
func (m *Dense) SolveUpperScalar(b *Dense) error {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveUpper %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	n := m.rows
	for i := 0; i < n; i++ {
		if m.data[i*m.stride+i] == 0 {
			return ErrSingular
		}
	}
	m.solveUpperRange(b, 0, n)
	return nil
}

// SolveUpperRight solves x*U = b in place over the rows of the receiver,
// i.e. it overwrites m with m * U^{-1}. U must be square upper triangular
// with m.Cols() == U.Rows(). This is the panel solve of the right-looking
// factorizations: LU's L panel, A(i,k)·U(k,k)⁻¹, and Cholesky's panel,
// A(i,k)·L(k,k)⁻ᵀ with U = L(k,k)ᵀ. Returns ErrSingular on a zero
// diagonal.
func (m *Dense) SolveUpperRight(u *Dense) error {
	if u.rows != u.cols || m.cols != u.rows {
		panic(fmt.Sprintf("matrix: SolveUpperRight %d×%d by %d×%d", m.rows, m.cols, u.rows, u.cols))
	}
	n := u.rows
	for i := 0; i < n; i++ {
		if u.data[i*u.stride+i] == 0 {
			return ErrSingular
		}
	}
	for r := 0; r < m.rows; r++ {
		row := m.data[r*m.stride : r*m.stride+m.cols]
		for j := 0; j < n; j++ {
			sum := row[j]
			for k := 0; k < j; k++ {
				sum -= row[k] * u.data[k*u.stride+j]
			}
			row[j] = sum / u.data[j*u.stride+j]
		}
	}
	return nil
}
