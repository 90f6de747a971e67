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

// trsmBlock is the panel height of the blocked backward solve SolveUpper:
// diagonal blocks this size are solved by substitution, everything
// off-diagonal is a GEMM update through the packed kernel.
const trsmBlock = 64

// trsmWidth is the diagonal block width of the two bit-identical solves,
// SolveLowerUnit and SolveUpperRight (BenchmarkDevelTRSM measures the
// alternatives at the engine's block sizes).
const trsmWidth = 16

// solveBlocked is the right-looking driver of the two bit-identical
// triangular solves over a triangle of order n: for each diagonal block
// [k0,k1) of width w in turn, substitute solves the block and update(k0,
// k1, n) subtracts its solution from the unsolved rest [k1,n) as one
// Strict (or mode) GEMM, C += (−1·A)·B. By gemm.go's determinism contract
// the GEMM starts each accumulator from C and takes its terms in
// increasing k; alpha = −1 is folded into A, (−x)·u = −(x·u) exactly and
// c + (−p) = c − p, so every output element sees the operation sequence of
// plain substitution, term for term.
func solveBlocked(n, w int, substitute func(k0, k1 int), update func(k0, k1, k2 int)) {
	for k0 := 0; k0 < n; k0 += w {
		k1 := min(k0+w, n)
		substitute(k0, k1)
		if k1 < n {
			update(k0, k1, n)
		}
	}
}

// SolveLowerUnit solves L*x = b in place over the columns of b, where L is
// unit lower triangular (diagonal treated as 1; strictly-upper part of the
// receiver ignored). b is overwritten with the solution.
//
// The solve is solveBlocked at every size: each trsmWidth block of rows is
// forward-substituted and the rows below it receive one rank-trsmWidth
// GEMM update. It is bit-identical to the scalar reference
// SolveLowerUnitScalar. Zero multipliers are not skipped: 0·NaN is NaN, per
// IEEE semantics.
func (m *Dense) SolveLowerUnit(b *Dense) {
	if m.rows != m.cols || m.rows != b.rows {
		panic(fmt.Sprintf("matrix: SolveLowerUnit %d×%d with rhs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	m.solveLowerUnitMode(b, Strict)
}

// solveLowerUnitMode is the blocked forward solve under an explicit
// numerics contract: the off-diagonal GEMM updates run under mode, the
// diagonal substitutions stay scalar. Strict is exactly SolveLowerUnit.
// Shapes were validated by the caller.
func (m *Dense) solveLowerUnitMode(b *Dense, mode Numerics) {
	solveBlocked(m.rows, trsmWidth,
		func(k0, k1 int) { m.solveLowerUnitRange(b, k0, k1) },
		func(k0, k1, k2 int) {
			// b[k1:k2] -= L[k1:k2, k0:k1] · b[k0:k1]
			c, l, x := b.view(k1, k2, 0, b.cols), m.view(k1, k2, k0, k1), b.view(k0, k1, 0, b.cols)
			c.addMulDispatchMode(-1, &l, &x, mode)
		})
}

// solveLowerUnitRange forward-substitutes rows [k0,k1) of b against the
// diagonal block m[k0:k1, k0:k1], assuming rows before k0 are already solved
// and their contribution already subtracted. Four solved rows are
// subtracted from row i per sweep, in increasing k, as one left-to-right
// expression — the rounding of four separate statements, with one load and
// store of b[i,j] instead of four.
func (m *Dense) solveLowerUnitRange(b *Dense, k0, k1 int) {
	for i := k0 + 1; i < k1; i++ {
		li := m.data[i*m.stride : i*m.stride+i]
		bi := b.data[i*b.stride : i*b.stride+b.cols]
		k := k0
		for ; k+4 <= i; k += 4 {
			l0, l1, l2, l3 := li[k], li[k+1], li[k+2], li[k+3]
			b0 := b.data[k*b.stride:][:len(bi)]
			b1 := b.data[(k+1)*b.stride:][:len(bi)]
			b2 := b.data[(k+2)*b.stride:][:len(bi)]
			b3 := b.data[(k+3)*b.stride:][:len(bi)]
			for j, v := range bi {
				bi[j] = v - l0*b0[j] - l1*b1[j] - l2*b2[j] - l3*b3[j]
			}
		}
		for ; k < i; k++ {
			l := li[k]
			bk := b.data[k*b.stride:][:len(bi)]
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
	for i := 1; i < m.rows; i++ {
		bi := b.data[i*b.stride : i*b.stride+b.cols]
		for k, l := range m.data[i*m.stride : i*m.stride+i] {
			bk := b.data[k*b.stride : k*b.stride+b.cols]
			for j := range bi {
				bi[j] -= l * bk[j]
			}
		}
	}
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
// A(i,k)·L(k,k)⁻ᵀ with U = L(k,k)ᵀ. Returns ErrSingular, with m
// unmodified, on a zero diagonal.
//
// The solve is solveBlocked at every size: each trsmWidth block of columns
// is substituted along U's rows, and the columns right of it receive one
// rank-trsmWidth Strict GEMM update. Each element is bit-identical to the
// row-by-row substitution x[j] = (b[j] − Σ_{k<j} x[k]·U[k,j]) / U[j,j]
// with the sum taken in increasing k; zero entries are not skipped.
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
	if m.rows == 0 {
		return nil
	}
	solveBlocked(n, trsmWidth,
		func(k0, k1 int) { m.solveUpperRightRange(u, k0, k1) },
		func(k0, k1, k2 int) {
			// m[:, k1:k2] -= m[:, k0:k1] · U[k0:k1, k1:k2]
			c, x, t := m.view(0, m.rows, k1, k2), m.view(0, m.rows, k0, k1), u.view(k0, k1, k1, k2)
			c.addMulDispatch(-1, &x, &t)
		})
	return nil
}

// solveUpperRightRange substitutes columns [k0,k1) of every row of m
// against the diagonal block u[k0:k1, k0:k1], assuming columns before k0
// are solved and their contribution already subtracted. It is
// right-looking: once x[j] is final it is subtracted from the block's
// later columns along U's contiguous row j, four rows of m at a time so
// each U entry loaded serves four updates. Diagonals were checked by the
// caller.
func (m *Dense) solveUpperRightRange(u *Dense, k0, k1 int) {
	w := k1 - k0
	r := 0
	for ; r+4 <= m.rows; r += 4 {
		x0 := m.data[r*m.stride+k0:][:w]
		x1 := m.data[(r+1)*m.stride+k0:][:w]
		x2 := m.data[(r+2)*m.stride+k0:][:w]
		x3 := m.data[(r+3)*m.stride+k0:][:w]
		for j := range x0 {
			uj := u.data[(k0+j)*u.stride+k0+j : (k0+j)*u.stride+k1]
			d := uj[0]
			a0, a1, a2, a3 := x0[j]/d, x1[j]/d, x2[j]/d, x3[j]/d
			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
			uj = uj[1:]
			y0, y1, y2, y3 := x0[j+1:][:len(uj)], x1[j+1:][:len(uj)], x2[j+1:][:len(uj)], x3[j+1:][:len(uj)]
			for t, v := range uj {
				y0[t] -= a0 * v
				y1[t] -= a1 * v
				y2[t] -= a2 * v
				y3[t] -= a3 * v
			}
		}
	}
	for ; r < m.rows; r++ {
		x := m.data[r*m.stride+k0:][:w]
		for j := range x {
			uj := u.data[(k0+j)*u.stride+k0+j : (k0+j)*u.stride+k1]
			a := x[j] / uj[0]
			x[j] = a
			uj = uj[1:]
			y := x[j+1:][:len(uj)]
			for t, v := range uj {
				y[t] -= a * v
			}
		}
	}
}
