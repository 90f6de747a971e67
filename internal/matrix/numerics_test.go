package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// eps is the double-precision unit roundoff.
const eps = 1.0 / (1 << 53)

// gammaFactor is the standard error-analysis quantity γ(t) = t·ε/(1−t·ε).
func gammaFactor(t int) float64 {
	x := float64(t) * eps
	return x / (1 - x)
}

// absClone returns |d| element-wise (NaN stays NaN).
func absClone(d *Dense) *Dense {
	r, c := d.Dims()
	out := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(i, j, math.Abs(d.At(i, j)))
		}
	}
	return out
}

func sameClass(x, y float64) bool {
	switch {
	case math.IsNaN(x):
		return math.IsNaN(y)
	case math.IsInf(x, 1):
		return math.IsInf(y, 1)
	case math.IsInf(x, -1):
		return math.IsInf(y, -1)
	default:
		return !math.IsNaN(y) && !math.IsInf(y, 0)
	}
}

// TestNumericsStringAndAvailability pins the enum names the parsers and CLI
// build on.
func TestNumericsStringAndAvailability(t *testing.T) {
	if Strict.String() != "strict" || Fast.String() != "fast" {
		t.Fatalf("String(): strict=%q fast=%q", Strict.String(), Fast.String())
	}
	if got := Numerics(9).String(); got != "numerics(9)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
	t.Logf("FastAvailable on this CPU: %v", FastAvailable())
}

// TestNumericsStrictIsDefault asserts AddMulNumerics(Strict) is bit-identical
// to plain AddMul — Strict must not change the historical contract.
func TestNumericsStrictIsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		a := randomOperand(rng, m, k, trial%2 == 0, trial%3 == 0)
		b := randomOperand(rng, k, n, trial%3 == 1, trial%4 == 0)
		c := randomOperand(rng, m, n, false, false)
		want := c.Clone()
		want.AddMul(1.5, a, b)
		got := c.Clone()
		got.AddMulNumerics(1.5, a, b, Strict)
		if !bitIdentical(got, want) {
			t.Fatalf("trial %d (%d×%d·%d×%d): Strict AddMulNumerics differs from AddMul", trial, m, k, k, n)
		}
	}
}

// TestNumericsFastErrorBound is the tentpole oracle: across 100 random
// sizes/shapes (strided views and NaN/Inf/−0 specials included), the Fast
// GEMM must satisfy the documented componentwise bound against Strict,
//
//	|fast − strict| ≤ 2·γ(k+1)·(|C0| + |alpha|·|A|·|B|),
//
// and must be bit-identical to the AddMulScalarFMA reference on FMA
// hardware (to the Strict path elsewhere). Non-finite outputs must agree in
// class and sign between the modes.
func TestNumericsFastErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		strided := trial%3 == 0
		specials := trial%4 == 3
		alpha := []float64{1, -1, 0.5, 2.25}[trial%4]
		a := randomOperand(rng, m, k, strided, specials)
		b := randomOperand(rng, k, n, strided, false)
		c0 := randomOperand(rng, m, n, false, false)

		strict := c0.Clone()
		strict.AddMulNumerics(alpha, a, b, Strict)
		fast := c0.Clone()
		fast.AddMulNumerics(alpha, a, b, Fast)

		// Bitwise pin against the mode's reference semantics.
		ref := c0.Clone()
		if FastAvailable() {
			ref.AddMulScalarFMA(alpha, a, b)
		} else {
			ref.AddMulScalar(alpha, a, b)
		}
		if !bitIdentical(fast, ref) {
			t.Fatalf("trial %d (%d×%d·%d×%d, alpha=%g): Fast path is not bit-identical to its reference",
				trial, m, k, k, n, alpha)
		}

		// Componentwise bound vs Strict.
		absAB := New(m, n)
		absAB.addMulScalar(math.Abs(alpha), absClone(a), absClone(b))
		bound := 2 * gammaFactor(k+1)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s, f := strict.At(i, j), fast.At(i, j)
				if !sameClass(s, f) {
					t.Fatalf("trial %d elem (%d,%d): class mismatch strict=%v fast=%v", trial, i, j, s, f)
				}
				if math.IsNaN(s) || math.IsInf(s, 0) {
					continue
				}
				limit := bound * (math.Abs(c0.At(i, j)) + absAB.At(i, j))
				if diff := math.Abs(f - s); diff > limit {
					t.Fatalf("trial %d elem (%d,%d): |fast-strict|=%g exceeds bound %g (k=%d)",
						trial, i, j, diff, limit, k)
				}
			}
		}
	}
}

// TestNumericsFastRimSweep walks every rim shape of the tile each contract
// runs on, under every force (allTiles), once per tile: m covers all mr
// residues of the tile's rows from 30 rounded up to mr, n all nr residues
// of its columns from 40 rounded up to nr, and k crosses gemmKC (256) and
// reaches a second depth panel wider than one column (300). From k = 5 up
// m·n·k is above the scalar cutoff, so those shapes take the packed path;
// k = 1 takes the scalar one. C is a view with a sentinel frame a full
// tile wide below and to the right, and NaN/±Inf sit in A's last row and
// B's last column, so a padded lane that leaked into a real output, or a
// store-back wider than the real tile, would show. Each contract must be
// bit-identical to its reference and leave every sentinel untouched.
func TestNumericsFastRimSweep(t *testing.T) {
	const sentinel = -7.25
	swept := map[string]bool{}
	allTiles(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(28))
		for _, mode := range kernelContracts {
			fused := mode == Fast && FastAvailable()
			tile := tileFor(fused)
			if swept[tile.name] {
				continue
			}
			swept[tile.name] = true
			m0, n0 := roundUp(30, tile.mr), roundUp(40, tile.nr)
			for _, k := range []int{1, 5, 256, 257, 300} {
				for m := m0; m < m0+tile.mr; m++ {
					for n := n0; n < n0+tile.nr; n++ {
						a := randomOperand(rng, m, k, true, false)
						b := randomOperand(rng, k, n, true, false)
						a.Set(m-1, 0, math.Inf(1))
						a.Set(m-1, k-1, math.NaN())
						b.Set(0, n-1, math.NaN())
						b.Set(k-1, n-1, math.Inf(-1))

						frame := New(m+1+tile.mr, n+1+tile.nr)
						for i := range frame.data {
							frame.data[i] = sentinel
						}
						c := frame.Slice(1, m+1, 1, n+1)
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								c.Set(i, j, rng.NormFloat64())
							}
						}
						ref := c.Clone()
						if fused {
							ref.AddMulScalarFMA(-0.75, a, b)
						} else {
							ref.AddMulScalar(-0.75, a, b)
						}
						c.AddMulNumerics(-0.75, a, b, mode)
						if !bitIdentical(c, ref) {
							t.Fatalf("%v on %s, %d×%d·%d×%d: not bit-identical to its reference", mode, tile.name, m, k, k, n)
						}
						fr, fc := frame.Dims()
						for i := 0; i < fr; i++ {
							for j := 0; j < fc; j++ {
								inside := i >= 1 && i <= m && j >= 1 && j <= n
								if !inside && math.Float64bits(frame.At(i, j)) != math.Float64bits(sentinel) {
									t.Fatalf("%v on %s, %d×%d·%d×%d: sentinel (%d,%d) overwritten with %v", mode, tile.name, m, k, k, n, i, j, frame.At(i, j))
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestNumericsFastZeroAlloc pins that a steady-state block update under
// either contract allocates nothing, at the engine's r = 32 and at r = 20,
// whose rims run on padded panels and the temporary tile on every tile.
func TestNumericsFastZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race matrix")
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{20, 32} {
		a, b, c := Random(n, n, rng), Random(n, n, rng), Random(n, n, rng)
		for _, mode := range kernelContracts {
			c.AddMulNumerics(1, a, b, mode)
			if avg := testing.AllocsPerRun(100, func() { c.AddMulNumerics(1, a, b, mode) }); avg != 0 {
				t.Fatalf("steady-state %v AddMulNumerics at n=%d allocates %.2f per call", mode, n, avg)
			}
		}
	}
}

// TestSolveLowerUnitNumerics pins that the Strict mode is exactly
// SolveLowerUnit and that Fast stays within a forward-solve error bound of
// it.
func TestSolveLowerUnitNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{16, 65, 130, 257} {
		l := randomOperand(rng, n, n, false, false)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				l.Set(i, j, 0)
			}
			// Keep multipliers ≤ 1 in magnitude like a pivoted LU panel.
			for j := 0; j < i; j++ {
				l.Set(i, j, l.At(i, j)/float64(n))
			}
		}
		b := randomOperand(rng, n, 40, false, false)

		strict := b.Clone()
		l.SolveLowerUnitNumerics(strict, Strict)
		ref := b.Clone()
		l.SolveLowerUnit(ref)
		if !bitIdentical(strict, ref) {
			t.Fatalf("n=%d: Strict SolveLowerUnitNumerics differs from SolveLowerUnit", n)
		}

		fast := b.Clone()
		l.SolveLowerUnitNumerics(fast, Fast)
		// L·x_fast should reproduce b about as well as L·x_strict does.
		den := float64(n) * b.FrobeniusNorm()
		residual := func(x *Dense) float64 {
			lx := Mul(l, x)
			r, c := lx.Dims()
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					lx.Add(i, j, x.At(i, j)) // unit diagonal contribution
				}
			}
			return Sub(b, lx).FrobeniusNorm() / den
		}
		rs, rf := residual(strict), residual(fast)
		if rf > 10*rs+1e-14 {
			t.Fatalf("n=%d: fast forward-solve residual %g vs strict %g", n, rf, rs)
		}
	}
}
