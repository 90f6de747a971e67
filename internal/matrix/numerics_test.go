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

// TestNumericsFastParallelMatchesSerial pins that the parallel Fast path is
// bit-identical to the serial Fast path for any worker count (the row-band
// split may not change which elements take the edge kernel).
func TestNumericsFastParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{97, 64, 80}, {130, 130, 130}, {260, 33, 47}, {64, 260, 16}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randomOperand(rng, m, k, false, false)
		b := randomOperand(rng, k, n, false, false)
		c0 := randomOperand(rng, m, n, false, false)
		want := c0.Clone()
		want.AddMulNumerics(1, a, b, Fast)
		for _, workers := range []int{2, 3, 4, 7} {
			got := c0.Clone()
			got.AddMulParallelNumerics(1, a, b, workers, Fast)
			if !bitIdentical(got, want) {
				t.Fatalf("%d×%d·%d×%d workers=%d: parallel Fast differs from serial Fast", m, k, k, n, workers)
			}
		}
	}
}

// residualLU returns ‖P·A − L·U‖_F / (n·‖A‖_F).
func residualLU(a *Dense, f *LU) float64 {
	n, _ := a.Dims()
	pa := Mul(f.PermMatrix(), a)
	lu := Mul(f.L(), f.U())
	return frobNorm(Sub(pa, lu)) / (float64(n) * frobNorm(a))
}

func frobNorm(d *Dense) float64 {
	r, c := d.Dims()
	s := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := d.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// TestNumericsFastFactorizations verifies the relaxed-but-bounded contract
// on the blocked factorizations: under Fast mode, LU, Cholesky and QR must
// produce factors whose reconstruction residual is as small as Strict's (to
// a small constant factor), and the Fast factors must stay normwise close
// to the Strict factors.
func TestNumericsFastFactorizations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{33, 64, 97, 150, 260} {
		a := randomOperand(rng, n, n, false, false)
		// Diagonal dominance keeps the LU well conditioned, so the normwise
		// fast-vs-strict comparison is meaningful.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}

		sLU, err := BlockedFactorNumerics(a.Clone(), 32, Strict)
		if err != nil {
			t.Fatalf("n=%d: strict LU: %v", n, err)
		}
		fLU, err := BlockedFactorNumerics(a.Clone(), 32, Fast)
		if err != nil {
			t.Fatalf("n=%d: fast LU: %v", n, err)
		}
		rs, rf := residualLU(a, sLU), residualLU(a, fLU)
		if rf > 10*rs+1e-14 {
			t.Fatalf("n=%d: fast LU residual %g vs strict %g", n, rf, rs)
		}

		spd := RandomSPD(n, rng)
		sCh, err := BlockedFactorCholeskyNumerics(spd, 64, Strict)
		if err != nil {
			t.Fatalf("n=%d: strict Cholesky: %v", n, err)
		}
		fCh, err := BlockedFactorCholeskyNumerics(spd, 64, Fast)
		if err != nil {
			t.Fatalf("n=%d: fast Cholesky: %v", n, err)
		}
		den := float64(n) * frobNorm(spd)
		rs = frobNorm(Sub(spd, Mul(sCh.L, sCh.L.T()))) / den
		rf = frobNorm(Sub(spd, Mul(fCh.L, fCh.L.T()))) / den
		if rf > 10*rs+1e-14 {
			t.Fatalf("n=%d: fast Cholesky residual %g vs strict %g", n, rf, rs)
		}
		if d := frobNorm(Sub(fCh.L, sCh.L)) / frobNorm(sCh.L); d > 1e-10 {
			t.Fatalf("n=%d: fast Cholesky factor drifts %g from strict", n, d)
		}

		tall := randomOperand(rng, n+16, n, false, false)
		sQR := FactorQRBlockedNumerics(tall.Clone(), 32, Strict)
		fQR := FactorQRBlockedNumerics(tall.Clone(), 32, Fast)
		denQ := float64(n) * frobNorm(tall)
		rs = frobNorm(Sub(tall, Mul(sQR.Q(), sQR.R()))) / denQ
		rf = frobNorm(Sub(tall, Mul(fQR.Q(), fQR.R()))) / denQ
		if rf > 10*rs+1e-14 {
			t.Fatalf("n=%d: fast QR residual %g vs strict %g", n, rf, rs)
		}
		qtq := Mul(fQR.Q().T(), fQR.Q())
		for i := 0; i < n+16; i++ {
			qtq.Add(i, i, -1)
		}
		if d := frobNorm(qtq); d > 1e-11*float64(n) {
			t.Fatalf("n=%d: fast QR loses orthogonality: ‖QᵀQ−I‖=%g", n, d)
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
		den := float64(n) * frobNorm(b)
		residual := func(x *Dense) float64 {
			lx := Mul(l, x)
			r, c := lx.Dims()
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					lx.Add(i, j, x.At(i, j)) // unit diagonal contribution
				}
			}
			return frobNorm(Sub(b, lx)) / den
		}
		rs, rf := residual(strict), residual(fast)
		if rf > 10*rs+1e-14 {
			t.Fatalf("n=%d: fast forward-solve residual %g vs strict %g", n, rf, rs)
		}
	}
}
