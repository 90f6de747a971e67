// Package matrix provides the dense linear algebra substrate used throughout
// hetgrid: a column-stride row-major Dense matrix type, the BLAS-like
// building blocks (GEMM, a step's batch of block updates, triangular
// solves), and the LAPACK-like factorizations (unpivoted LU, Cholesky,
// Householder QR) that the ScaLAPACK-style distributed kernels are built
// from.
//
// Everything is pure Go and stdlib-only. The package favours clarity and
// numerical robustness over peak flop rates: hetgrid uses it to verify that
// data distributions do not change numerical results and to drive the
// block-level replay of the distributed algorithms, not to compete with
// tuned BLAS.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (or wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("matrix: dimension mismatch")

// ErrSingular is returned by factorizations and solvers when the matrix is
// exactly singular to working precision.
var ErrSingular = errors.New("matrix: singular matrix")

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0×0 matrix ready for use with SetDims. A Dense
// may be a view into another matrix's backing array (see Slice), in which
// case Stride exceeds Cols and mutations are shared.
type Dense struct {
	rows, cols int
	stride     int
	data       []float64
}

// New returns a zero-initialized r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: make([]float64, r*c)}
}

// NewFromSlice returns an r×c matrix whose entries are taken from data in
// row-major order. The slice is copied; len(data) must equal r*c.
func NewFromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: NewFromSlice got %d values for %d×%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// NewFromRows returns a matrix whose i-th row is rows[i]. All rows must have
// equal length.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d entries, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*m.stride:i*m.stride+c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*m.stride+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.stride+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.stride+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.stride+j] += v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns the i-th row as a slice sharing the matrix's backing array.
// Mutating the slice mutates the matrix.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.stride : i*m.stride+m.cols]
}

// Clone returns a deep copy of m with a compact stride.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.stride:i*out.stride+m.cols], m.data[i*m.stride:i*m.stride+m.cols])
	}
	return out
}

// CopyFrom copies src into m; dimensions must match exactly.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("matrix: CopyFrom %d×%d into %d×%d", src.rows, src.cols, m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(m.data[i*m.stride:i*m.stride+m.cols], src.data[i*src.stride:i*src.stride+src.cols])
	}
}

// Slice returns a view of the rectangle [i0,i1)×[j0,j1). The view shares
// storage with m: writes through the view are visible in m.
func (m *Dense) Slice(i0, i1, j0, j1 int) *Dense {
	v := m.view(i0, i1, j0, j1)
	return &v
}

// view is Slice by value: a view the caller can keep on its stack, so the
// blocked solves take their operand views without allocating.
func (m *Dense) view(i0, i1, j0, j1 int) Dense {
	if i0 < 0 || i1 < i0 || i1 > m.rows || j0 < 0 || j1 < j0 || j1 > m.cols {
		panic(fmt.Sprintf("matrix: slice [%d:%d,%d:%d] out of range %d×%d", i0, i1, j0, j1, m.rows, m.cols))
	}
	return Dense{
		rows:   i1 - i0,
		cols:   j1 - j0,
		stride: m.stride,
		data:   m.data[i0*m.stride+j0 : (i1-1)*m.stride+j1 : (i1-1)*m.stride+j1],
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride:]
		for j := 0; j < m.cols; j++ {
			out.data[j*out.stride+i] = row[j]
		}
	}
	return out
}

// Scale multiplies every entry of m by a, in place.
func (m *Dense) Scale(a float64) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j := range row {
			row[j] *= a
		}
	}
}

// Zero sets every entry of m to 0, in place.
func (m *Dense) Zero() {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Equal reports whether m and n have the same shape and identical entries.
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		a := m.data[i*m.stride : i*m.stride+m.cols]
		b := n.data[i*n.stride : i*n.stride+n.cols]
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether m and n have the same shape and all entries
// within tol of each other (absolute difference).
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		a := m.data[i*m.stride : i*m.stride+m.cols]
		b := n.data[i*n.stride : i*n.stride+n.cols]
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for _, v := range row {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	// Two-pass scaling avoids overflow for large entries.
	scale := m.MaxAbs()
	if scale == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for _, v := range row {
			s := v / scale
			sum += s * s
		}
	}
	return scale * math.Sqrt(sum)
}

// InfNorm returns the maximum absolute row sum of m.
func (m *Dense) InfNorm() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		sum := 0.0
		for _, v := range row {
			sum += math.Abs(v)
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// OneNorm returns the maximum absolute column sum of m.
func (m *Dense) OneNorm() float64 {
	sums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	max := 0.0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// SwapRows exchanges rows i and j in place.
func (m *Dense) SwapRows(i, j int) {
	if i == j {
		return
	}
	a := m.RawRow(i)
	b := m.RawRow(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// String renders the matrix with aligned, fixed-precision columns. Intended
// for debugging and small matrices.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.4f", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
