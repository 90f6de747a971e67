package matrix

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular Cholesky factor of a symmetric
// positive definite matrix: A = L·Lᵀ.
type Cholesky struct {
	L *Dense
}

// ErrNotPositiveDefinite is returned when a pivot is non-positive during
// Cholesky factorization.
var ErrNotPositiveDefinite = fmt.Errorf("matrix: not positive definite: %w", ErrSingular)

// FactorCholesky computes the lower Cholesky factor of a. Only the lower
// triangle of a is read; the input is not modified.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("matrix: Cholesky of non-square %d×%d", n, c))
	}
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal: l_jj = sqrt(a_jj - Σ_k l_jk²).
		sum := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			sum -= v * v
		}
		if sum <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		d := math.Sqrt(sum)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{L: l}, nil
}

// RandomSPD returns a random symmetric positive definite matrix of order n:
// M·Mᵀ + n·I for a random M.
func RandomSPD(n int, rng interface{ Float64() float64 }) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 2*rng.Float64()-1)
		}
	}
	spd := Mul(m, m.T())
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}
