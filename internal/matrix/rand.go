package matrix

import "math/rand"

// Random returns an r×c matrix with entries drawn uniformly from [-1, 1)
// using rng. Deterministic for a seeded rng, which the experiment harness
// relies on for reproducibility.
func Random(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomWellConditioned returns an n×n diagonally dominant random matrix:
// uniform [-1,1) entries with n added to the diagonal. Such matrices are
// safely non-singular, so LU-based replay tests never hit pivot breakdown.
func RandomWellConditioned(n int, rng *rand.Rand) *Dense {
	m := Random(n, n, rng)
	for i := 0; i < n; i++ {
		m.data[i*m.stride+i] += float64(n)
	}
	return m
}
