package kernels

import (
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// TestNumericsFastFactorizations verifies the relaxed-but-bounded contract on
// the factorizations that run: under matrix.Fast the LU and Cholesky replays
// — the code the engine is held bit-identical to — must reconstruct their
// input as well as under matrix.Strict (to a small constant factor), and the
// Fast factors must stay normwise close to the Strict ones. r = 32 puts every
// trailing update on the packed kernel, where Fast is a different
// micro-kernel. QR has no row: it is Strict under either mode (see
// ReplayQRNumerics).
func TestNumericsFastFactorizations(t *testing.T) {
	const r = 32
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 96, 160, 256} {
		d, err := distribution.UniformBlockCyclic(2, 2, n/r, n/r)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []struct {
			name    string
			in      *matrix.Dense
			replay  func(d distribution.Distribution, a *matrix.Dense, mode matrix.Numerics) (*Replay, error)
			rebuild func(factors *matrix.Dense) *matrix.Dense
		}{
			{"LU", matrix.RandomWellConditioned(n, rng), ReplayLUNumerics, func(packed *matrix.Dense) *matrix.Dense {
				l, u := ExtractLU(packed)
				return matrix.Mul(l, u)
			}},
			{"Cholesky", matrix.RandomSPD(n, rng), ReplayCholeskyNumerics, func(l *matrix.Dense) *matrix.Dense {
				return matrix.Mul(l, l.T())
			}},
		} {
			strict, err := k.replay(d, k.in, matrix.Strict)
			if err != nil {
				t.Fatalf("n=%d: strict %s: %v", n, k.name, err)
			}
			fast, err := k.replay(d, k.in, matrix.Fast)
			if err != nil {
				t.Fatalf("n=%d: fast %s: %v", n, k.name, err)
			}
			den := float64(n) * k.in.FrobeniusNorm()
			rs := matrix.Sub(k.in, k.rebuild(strict.C)).FrobeniusNorm() / den
			rf := matrix.Sub(k.in, k.rebuild(fast.C)).FrobeniusNorm() / den
			if rf > 10*rs+1e-14 {
				t.Errorf("n=%d: fast %s residual %g vs strict %g", n, k.name, rf, rs)
			}
			if drift := matrix.Sub(fast.C, strict.C).FrobeniusNorm() / strict.C.FrobeniusNorm(); drift > 1e-10 {
				t.Errorf("n=%d: fast %s factor drifts %g from strict", n, k.name, drift)
			}
		}
	}
}
