// Package svd computes singular value decompositions of dense matrices.
//
// The heterogeneous-grid heuristic of Beaumont et al. needs the best rank-1
// approximation (in the l2 sense) of the inverse cycle-time matrix
// T^inv = (1/t_ij): by Eckart–Young this is s·a·bᵀ where (s, a, b) is the
// dominant singular triple. The package provides both a full one-sided
// Jacobi SVD (robust, O(n³) per sweep, ideal for the small matrices that
// arise from processor grids) and a cheaper dominant-triple power iteration.
package svd

import (
	"errors"
	"math"

	"hetgrid/internal/matrix"
)

// ErrNoConvergence is returned when an iterative method fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("svd: iteration did not converge")

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ of an
// m×n matrix with m >= n: U is m×n with orthonormal columns, V is n×n
// orthogonal, and S holds the singular values in non-increasing order.
type SVD struct {
	U *matrix.Dense
	S []float64
	V *matrix.Dense
}

// maxSweeps bounds the number of Jacobi sweeps; convergence is quadratic,
// so well-scaled inputs finish in a handful of sweeps.
const maxSweeps = 60

// Decompose computes the thin SVD of a using the one-sided Jacobi method.
// For m < n the decomposition of the transpose is computed and swapped, so
// any shape is accepted.
func Decompose(a *matrix.Dense) (*SVD, error) {
	m, n := a.Dims()
	if m < n {
		s, err := Decompose(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: s.V, S: s.S, V: s.U}, nil
	}
	// Work on a copy W whose columns converge to U * diag(S); V accumulates
	// the applied rotations.
	w := a.Clone()
	v := matrix.Identity(n)
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2×2 Gram block for columns p, q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += gamma * gamma
				// Jacobi rotation zeroing the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			return finish(w, v)
		}
	}
	// One-sided Jacobi converges for any matrix; reaching here means the
	// tolerance was never met, which we still report with best-effort output.
	out, _ := finish(w, v)
	return out, ErrNoConvergence
}

// finish extracts singular values as column norms of w, normalizes the
// columns into U, and sorts everything in non-increasing order.
func finish(w, v *matrix.Dense) (*SVD, error) {
	m, n := w.Dims()
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm = math.Hypot(norm, w.At(i, j))
		}
		s[j] = norm
	}
	// Selection-sort columns by descending singular value (n is small).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	u := matrix.New(m, n)
	vOut := matrix.New(n, n)
	sOut := make([]float64, n)
	for k, col := range order {
		sOut[k] = s[col]
		if s[col] > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, k, w.At(i, col)/s[col])
			}
		} else {
			// Zero singular value: leave the U column zero; callers using
			// the thin SVD for rank-1 approximation never touch it.
			u.Set(k%m, k, 1)
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, k, v.At(i, col))
		}
	}
	return &SVD{U: u, S: sOut, V: vOut}, nil
}

// Rank1 returns the best rank-1 approximation s1 * u1 * v1ᵀ along with the
// dominant triple (s1, u1, v1). The signs of u1 and v1 are normalized so
// that the entry of u1 with the largest magnitude is positive, which makes
// the decomposition deterministic for the heuristic's use.
func (d *SVD) Rank1() (s1 float64, u1, v1 []float64) {
	m, _ := d.U.Dims()
	n, _ := d.V.Dims()
	u1 = make([]float64, m)
	v1 = make([]float64, n)
	for i := 0; i < m; i++ {
		u1[i] = d.U.At(i, 0)
	}
	for j := 0; j < n; j++ {
		v1[j] = d.V.At(j, 0)
	}
	// Normalize sign.
	maxIdx, maxAbs := 0, 0.0
	for i, u := range u1 {
		if a := math.Abs(u); a > maxAbs {
			maxAbs, maxIdx = a, i
		}
	}
	if u1[maxIdx] < 0 {
		for i := range u1 {
			u1[i] = -u1[i]
		}
		for j := range v1 {
			v1[j] = -v1[j]
		}
	}
	return d.S[0], u1, v1
}

// DominantTriple computes the largest singular value and its singular
// vectors by power iteration on AᵀA, avoiding a full decomposition. tol is
// the relative change in the singular value at which iteration stops;
// maxIter bounds the work. The returned vectors are sign-normalized like
// SVD.Rank1. Returns ErrNoConvergence if the budget is exhausted before the
// tolerance is met (the best estimate so far is still returned).
func DominantTriple(a *matrix.Dense, tol float64, maxIter int) (s float64, u, v []float64, err error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return 0, nil, nil, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	// Deterministic start: the all-ones vector has a nonzero component along
	// the dominant right singular vector for the positive matrices (inverse
	// cycle-times) this is used on.
	v = make([]float64, n)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(n))
	}
	u = make([]float64, m)
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		// u = A v, s = ||u||.
		for i := 0; i < m; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * v[j]
			}
			u[i] = sum
		}
		s = norm2(u)
		if s == 0 {
			return 0, u, v, nil
		}
		scale(u, 1/s)
		// v = Aᵀ u, s = ||v||.
		for j := 0; j < n; j++ {
			sum := 0.0
			for i := 0; i < m; i++ {
				sum += a.At(i, j) * u[i]
			}
			v[j] = sum
		}
		s = norm2(v)
		if s == 0 {
			return 0, u, v, nil
		}
		scale(v, 1/s)
		if math.Abs(s-prev) <= tol*s {
			signNormalize(u, v)
			return s, u, v, nil
		}
		prev = s
	}
	signNormalize(u, v)
	return s, u, v, ErrNoConvergence
}

func norm2(x []float64) float64 {
	n := 0.0
	for _, v := range x {
		n = math.Hypot(n, v)
	}
	return n
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func signNormalize(u, v []float64) {
	maxIdx, maxAbs := 0, 0.0
	for i, x := range u {
		if a := math.Abs(x); a > maxAbs {
			maxAbs, maxIdx = a, i
		}
	}
	if len(u) > 0 && u[maxIdx] < 0 {
		scale(u, -1)
		scale(v, -1)
	}
}
