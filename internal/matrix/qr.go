package matrix

import (
	"fmt"
	"math"
	"sync"
)

// QRChunk is how many consecutive reflectors one compact-WY factor
// aggregates: the fixed column chunking of QTMul, QMul and WY, so a wide QR
// never forms an n×n T.
const QRChunk = 32

// QR holds a Householder QR factorization A = Q*R for an m×n matrix with
// m >= n: Q is m×m orthogonal, R is m×n upper trapezoidal.
type QR struct {
	// qr packs R in the upper triangle and the Householder vectors
	// (below the diagonal, with implicit unit leading entry) elsewhere.
	qr *Dense
	// tau[k] is the scaling factor of the k-th Householder reflector
	// H_k = I - tau_k * v_k * v_k^T.
	tau []float64
	// v and tt are the same reflectors in compact-WY form (see WY) and wy
	// their factors, one per QRChunk columns, formed by the first QTMul,
	// QMul or WY and shared by all later ones.
	wyOnce sync.Once
	v, tt  *Dense
	wy     []compactWY
}

// FactorQR computes the Householder QR factorization of a (m >= n required)
// with the unblocked reflector loop. The input is not modified.
func FactorQR(a *Dense) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic(fmt.Sprintf("matrix: QR requires rows >= cols, got %d×%d", m, n))
	}
	qr := a.Clone()
	tau := make([]float64, n)
	householderPanel(qr, tau, 0, n, make([]float64, n))
	return &QR{qr: qr, tau: tau}
}

// householderPanel factors columns [k0, k1) of qr in place with the
// unblocked reflector loop (tau arrives zeroed), applying each reflector to
// the panel's own later columns only. Both sweeps of that application run
// along rows — all the column dot products at once in sums (length ≥
// k1−k0−1), then the rank-1 update — which leaves every element's
// operation order what the column-at-a-time loop's was.
func householderPanel(qr *Dense, tau []float64, k0, k1 int, sums []float64) {
	m, s := qr.rows, qr.stride
	for k := k0; k < k1; k++ {
		// Build the Householder reflector annihilating qr[k+1:, k].
		normx := qr.colNorm(k, k)
		if normx == 0 {
			continue // tau[k] stays 0: H_k = I
		}
		alpha := qr.data[k*s+k]
		beta := -math.Copysign(normx, alpha)
		// v = x - beta*e1, normalized so v[0] = 1; then H = I - tau*v*v^T
		// maps x to beta*e1 for tau = (beta - alpha)/beta. R's diagonal
		// entry and the reflector below it overwrite the column.
		v0 := alpha - beta
		tau[k] = (beta - alpha) / beta
		qr.data[k*s+k] = beta
		w := sums[:k1-k-1]
		copy(w, qr.data[k*s+k+1:k*s+k1])
		for i := k + 1; i < m; i++ {
			vi := qr.data[i*s+k] / v0
			qr.data[i*s+k] = vi
			for j, x := range qr.data[i*s+k+1 : i*s+k1] {
				w[j] += vi * x
			}
		}
		for j := range w {
			w[j] *= tau[k]
			qr.data[k*s+k+1+j] -= w[j]
		}
		for i := k + 1; i < m; i++ {
			vi := qr.data[i*s+k]
			row := qr.data[i*s+k+1 : i*s+k1]
			for j, sj := range w {
				row[j] -= sj * vi
			}
		}
	}
}

// colNorm returns ‖m[i0:, j]‖₂ as a scaled two-pass sum of squares: as safe
// against overflow and underflow as a math.Hypot chain, without its serial
// square root and division per element. NaN and ±Inf entries propagate.
func (m *Dense) colNorm(i0, j int) float64 {
	scale := 0.0
	for i := i0; i < m.rows; i++ {
		if a := math.Abs(m.data[i*m.stride+j]); a > scale || a != a {
			scale = a
		}
	}
	if scale == 0 || math.IsInf(scale, 1) {
		return scale
	}
	sum := 0.0
	for i := i0; i < m.rows; i++ {
		x := m.data[i*m.stride+j] / scale
		sum += x * x
	}
	return scale * math.Sqrt(sum)
}

// compactWY aggregates the reflectors of packed columns [k0, k0+pw) as
// H(k0)···H(k0+pw−1) = I − V·T·Vᵀ, T the upper triangular factor (LAPACK
// larft): v, the (m−k0)×pw unit lower trapezoid of reflector vectors, and
// tt = Tᵀ are views of the factorization's whole V and Tᵀ (WY); vt and t
// are their transposes, kept so that every product of apply is a plain
// AddMul. A tau_k = 0 reflector becomes a zero column of v and a zero row
// and column of t — an exact identity whose packed column is never read.
type compactWY struct {
	k0           int
	v, vt, t, tt Dense
}

// formWY forms the whole V and Tᵀ and one compact-WY factor per QRChunk
// columns.
func (f *QR) formWY() {
	m, n := f.qr.rows, f.qr.cols
	f.v, f.tt = New(m, n), New(n, n)
	for i := 0; i < m; i++ {
		row := f.v.data[i*n : (i+1)*n]
		copy(row[:min(i, n)], f.qr.data[i*f.qr.stride:])
		if i < n {
			row[i] = 1
		}
		for j := range row {
			if f.tau[j] == 0 {
				row[j] = 0
			}
		}
	}
	for k0 := 0; k0 < n; k0 += QRChunk {
		f.wy = append(f.wy, newCompactWY(f.v, f.tt, f.tau, k0, min(k0+QRChunk, n)))
	}
}

// newCompactWY forms the compact-WY factor of columns [k0, k1) of the whole
// V, writing its Tᵀ into the diagonal block [k0, k1) of the whole tt.
func newCompactWY(v, tt *Dense, tau []float64, k0, k1 int) compactWY {
	rows, pw := v.rows-k0, k1-k0
	buf := make([]float64, rows*pw+pw*pw)
	w := compactWY{k0: k0, v: v.view(k0, v.rows, k0, k1), tt: tt.view(k0, k1, k0, k1),
		vt: Dense{rows: pw, cols: rows, stride: rows, data: buf[: rows*pw : rows*pw]},
		t:  Dense{rows: pw, cols: pw, stride: pw, data: buf[rows*pw:]}}
	for i := 0; i < rows; i++ {
		for j, x := range w.v.data[i*w.v.stride : i*w.v.stride+pw] {
			w.vt.data[j*rows+i] = x
		}
	}
	// T by forward accumulation: T(j,j) = tau_j and
	// T(0:j, j) = −tau_j · T(0:j, 0:j) · (Vᵀ·V)(0:j, j). The Gram matrix
	// comes from one GEMM into tt, which T's transpose then overwrites.
	g, s := w.tt.data, w.tt.stride
	w.tt.addMulDispatch(1, &w.vt, &w.v)
	for j := 0; j < pw; j++ {
		tj := tau[k0+j]
		if tj == 0 {
			continue
		}
		w.t.data[j*pw+j] = tj
		for i := 0; i < j; i++ {
			sum := 0.0
			for k := i; k < j; k++ {
				sum += w.t.data[i*pw+k] * g[k*s+j]
			}
			w.t.data[i*pw+j] = -tj * sum
		}
	}
	for i := 0; i < pw; i++ {
		for j := 0; j < pw; j++ {
			g[i*s+j] = w.t.data[j*pw+i]
		}
	}
	return w
}

// apply overwrites b (m rows) with (I − V·T·Vᵀ)·b, or with the transposed
// factor (I − V·Tᵀ·Vᵀ)·b: b −= V·(T·(Vᵀ·b)) as three Strict AddMuls. work
// is scratch, returned (possibly grown) for reuse.
func (w *compactWY) apply(b *Dense, transposed bool, work []float64) []float64 {
	pw, nc := w.v.cols, b.cols
	work = ensure(work, 2*pw*nc)
	clear(work)
	w1 := Dense{rows: pw, cols: nc, stride: nc, data: work[:pw*nc]}
	w2 := Dense{rows: pw, cols: nc, stride: nc, data: work[pw*nc:]}
	bv := Dense{rows: b.rows - w.k0, cols: nc, stride: b.stride, data: b.data[w.k0*b.stride:]}
	t := &w.t
	if transposed {
		t = &w.tt
	}
	w1.addMulDispatch(1, &w.vt, &bv)
	w2.addMulDispatch(1, t, &w1)
	bv.addMulDispatch(-1, &w.v, &w2)
	return work
}

// qrWorkPool recycles apply's scratch so a steady-state QTMul allocates
// nothing.
var qrWorkPool = sync.Pool{New: func() any { return new([]float64) }}

// applyQ overwrites b with Qᵀ·b (transposed) or Q·b: the compact-WY chunks
// in column order for Qᵀ = ⋯H_1·H_0, in reverse for Q. Every product is a
// Strict AddMul, so by gemm.go's determinism contract the result is a pure
// function of the operand values — not of b's stride or width, nor of how
// the products are blocked.
func (f *QR) applyQ(b *Dense, transposed bool) {
	if b.rows != f.qr.rows {
		panic(fmt.Sprintf("matrix: applying a %d-row Q to a %d×%d matrix", f.qr.rows, b.rows, b.cols))
	}
	if b.cols == 0 {
		return
	}
	f.wyOnce.Do(f.formWY)
	work := qrWorkPool.Get().(*[]float64)
	for i := range f.wy {
		if !transposed {
			i = len(f.wy) - 1 - i
		}
		*work = f.wy[i].apply(b, transposed, *work)
	}
	qrWorkPool.Put(work)
}

// WY returns the reflectors in compact-WY form, as QTMul and QMul apply
// them: v is the m×n matrix of reflector vectors (unit diagonal, zeros above
// it, a zero column for each tau_k = 0), and tt holds on its diagonal the
// Tᵀ of each chunk of QRChunk columns, zeros elsewhere. QTMul applies chunk
// [k0, k1), in column order, as b[k0:] −= V·(Tᵀ·(Vᵀ·b[k0:])) with
// V = v[k0:, k0:k1] and Tᵀ = tt[k0:k1, k0:k1], each product a Strict AddMul:
// by gemm.go's determinism contract a caller who splits those products
// along b's rows and columns — Vᵀ·b accumulated block row by block row in
// increasing order, the last product block by block — gets QTMul's bits.
// Both are shared with the factorization; callers must not modify them.
func (f *QR) WY() (v, tt *Dense) {
	f.wyOnce.Do(f.formWY)
	return f.v, f.tt
}

// QRFromPacked reconstitutes a factorization from its packed
// representation and tau scalings, as produced by Packed and Tau — e.g. on
// a remote rank that received them as messages. The inputs are adopted
// without copying and must not change afterwards. The compact-WY form is
// re-derived from them on first use, so applying the result (QTMul, QMul)
// gives what the originating factorization gives, bit for bit.
func QRFromPacked(packed *Dense, tau []float64) *QR {
	if len(tau) != packed.cols {
		panic(fmt.Sprintf("matrix: %d tau scalings for a %d-column packed QR", len(tau), packed.cols))
	}
	return &QR{qr: packed, tau: tau}
}

// Packed returns the internal packed representation: R in the upper
// triangle and the Householder reflector columns (implicit unit leading
// entry) below the diagonal. The returned matrix is shared with the
// factorization; callers must not modify it.
func (f *QR) Packed() *Dense { return f.qr }

// Tau returns the Householder scaling factors, shared with the
// factorization.
func (f *QR) Tau() []float64 { return f.tau }

// R returns the upper trapezoidal factor as a new m×n matrix.
func (f *QR) R() *Dense {
	m, n := f.qr.rows, f.qr.cols
	r := New(m, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.data[i*r.stride+j] = f.qr.data[i*f.qr.stride+j]
		}
	}
	return r
}

// Q returns the full m×m orthogonal factor as a new matrix.
func (f *QR) Q() *Dense {
	q := Identity(f.qr.rows)
	f.QMul(q)
	return q
}

// QTMul overwrites b with Qᵀ·b. b must have m rows. Safe for concurrent
// use on one QR; a steady-state call allocates nothing.
func (f *QR) QTMul(b *Dense) { f.applyQ(b, true) }

// QMul overwrites b with Q·b. b must have m rows. Safe for concurrent use
// on one QR, like QTMul.
func (f *QR) QMul(b *Dense) { f.applyQ(b, false) }
