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
// triangle of a is read; the input is not modified. It works on row slices
// of l: the first j entries of row j hold the k < j terms of every sum in
// column j, taken in increasing k.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("matrix: Cholesky of non-square %d×%d", n, c))
	}
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal: l_jj = sqrt(a_jj - Σ_k l_jk²).
		lj := l.data[j*l.stride : j*l.stride+j]
		sum := a.data[j*a.stride+j]
		for _, v := range lj {
			sum -= v * v
		}
		if sum <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		d := math.Sqrt(sum)
		l.data[j*l.stride+j] = d
		for i := j + 1; i < n; i++ {
			li := l.data[i*l.stride : i*l.stride+j]
			s := a.data[i*a.stride+j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l.data[i*l.stride+j] = s / d
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
