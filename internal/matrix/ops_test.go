package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulKnown(t *testing.T) {
	a := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewFromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("Mul =\n%vwant\n%v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(5, 5, rng)
	if !Mul(a, Identity(5)).EqualApprox(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Mul(Identity(5), a).EqualApprox(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := 1 + int(uint(seed)%5)
		k := 1 + int(uint(seed>>4)%5)
		c := 1 + int(uint(seed>>8)%5)
		k2 := 1 + int(uint(seed>>12)%5)
		a := Random(r, k, rng)
		b := Random(k, c, rng)
		cc := Random(c, k2, rng)
		left := Mul(Mul(a, b), cc)
		right := Mul(a, Mul(b, cc))
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddMulAccumulates(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{1, 0, 0, 1})
	b := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	m := NewFromSlice(2, 2, []float64{10, 10, 10, 10})
	m.AddMul(2, a, b)
	want := NewFromSlice(2, 2, []float64{12, 14, 16, 18})
	if !m.Equal(want) {
		t.Fatalf("AddMul =\n%vwant\n%v", m, want)
	}
	// alpha = 0 must be a no-op.
	before := m.Clone()
	m.AddMul(0, a, b)
	if !m.Equal(before) {
		t.Fatal("AddMul with alpha=0 modified the receiver")
	}
}

func TestSub(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(3, 4, rng)
	b := Random(3, 4, rng)
	diff := Sub(a, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if diff.At(i, j) != a.At(i, j)-b.At(i, j) {
				t.Fatalf("(a-b)[%d,%d] = %v", i, j, diff.At(i, j))
			}
		}
	}
	d := Sub(a, a)
	if d.MaxAbs() != 0 {
		t.Fatal("a-a != 0")
	}
}

func TestSolveLowerUnit(t *testing.T) {
	l := NewFromSlice(3, 3, []float64{
		1, 0, 0,
		2, 1, 0,
		3, 4, 1,
	})
	x := NewFromSlice(3, 1, []float64{1, 1, 1})
	b := Mul(l, x)
	l.SolveLowerUnit(b)
	if !b.EqualApprox(x, 1e-13) {
		t.Fatalf("SolveLowerUnit: got %v", b)
	}
}

func TestSolveLowerUnitIgnoresUpperAndDiag(t *testing.T) {
	// Garbage above the diagonal and a non-1 diagonal must be ignored.
	l := NewFromSlice(2, 2, []float64{
		7, 99,
		2, -5,
	})
	b := NewFromSlice(2, 1, []float64{1, 5})
	l.SolveLowerUnit(b)
	// Effective L = [[1,0],[2,1]]: x0=1, x1=5-2*1=3.
	if b.At(0, 0) != 1 || b.At(1, 0) != 3 {
		t.Fatalf("got %v", b)
	}
}

func TestSolveUpper(t *testing.T) {
	u := NewFromSlice(3, 3, []float64{
		2, 1, -1,
		0, 3, 2,
		0, 0, 4,
	})
	x := NewFromSlice(3, 2, []float64{1, 2, -1, 0, 2, 1})
	b := Mul(u, x)
	if err := u.SolveUpper(b); err != nil {
		t.Fatal(err)
	}
	if !b.EqualApprox(x, 1e-13) {
		t.Fatalf("SolveUpper mismatch:\n%v", b)
	}
}

func TestSolveUpperSingular(t *testing.T) {
	u := NewFromSlice(2, 2, []float64{1, 2, 0, 0})
	if err := u.SolveUpper(New(2, 1)); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveUpperRight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := New(3, 3)
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			u.Set(i, j, 1+rng.Float64())
		}
	}
	m := Random(4, 3, rng)
	orig := m.Clone()
	if err := m.SolveUpperRight(u); err != nil {
		t.Fatal(err)
	}
	if !Mul(m, u).EqualApprox(orig, 1e-12) {
		t.Fatal("SolveUpperRight: (m*U^{-1})*U != m")
	}
}

func TestSolveUpperRightSingular(t *testing.T) {
	u := NewFromSlice(2, 2, []float64{1, 5, 0, 0})
	m := New(3, 2)
	if err := m.SolveUpperRight(u); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// upperOperand is an n×n upper triangular U with entries of size about 1
// on and above a diagonal kept off zero — a strided view inside a larger
// matrix when strided, with NaN, ±Inf and ±0 sprinkled over it (the
// diagonal may be NaN or ±Inf, never ±0) when specials.
func upperOperand(rng *rand.Rand, n int, strided, specials bool) *Dense {
	u := randomOperand(rng, n, n, strided, specials)
	for i := 0; i < n; i++ {
		if u.At(i, i) == 0 || !specials {
			u.Set(i, i, 2+rng.Float64())
		}
		for j := 0; j < i; j++ {
			u.Set(i, j, 0)
		}
	}
	return u
}

// TestSolveUpperRightMatchesRows pins the blocked SolveUpperRight to the
// row-wise substitution it replaced (solveUpperRightRows) bit for bit: n
// over 1…70, across every block-width boundary, rows over the remainder
// cases of the four-row kernel, contiguous and strided operands, with and
// without NaN, ±Inf and ±0. NaN-ness must match, and the border around a
// strided receiver must be left as it was.
func TestSolveUpperRightMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 1; n <= 70; n++ {
		for _, rows := range []int{1, 7, 32, 96} {
			for _, strided := range []bool{false, true} {
				for _, special := range []bool{false, true} {
					u := upperOperand(rng, n, strided, special)
					got := randomOperand(rng, rows+2, n+3, false, special)
					want := got.Clone()
					solveUpperRightRows(want.Slice(1, rows+1, 2, n+2), u)
					x := got.Slice(1, rows+1, 2, n+2)
					if !strided {
						x = x.Clone()
						got, want = x, want.Slice(1, rows+1, 2, n+2).Clone()
					}
					if err := x.SolveUpperRight(u); err != nil {
						t.Fatalf("n=%d rows=%d: %v", n, rows, err)
					}
					if !bitIdentical(got, want) {
						t.Fatalf("n=%d rows=%d strided=%v special=%v: blocked SolveUpperRight differs from the row-wise substitution", n, rows, strided, special)
					}
				}
			}
		}
	}
}

// TestSolveUpperRightSingularLeavesReceiverUntouched: a zero diagonal
// anywhere — first block, a later block, −0 — returns ErrSingular before
// anything is written.
func TestSolveUpperRightSingularLeavesReceiverUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, c := range []struct {
		n, at int
		zero  float64
	}{{1, 0, 0}, {16, 3, 0}, {40, 35, 0}, {64, 63, math.Copysign(0, -1)}, {70, 17, 0}} {
		u := upperOperand(rng, c.n, false, false)
		u.Set(c.at, c.at, c.zero)
		x := Random(9, c.n, rng)
		before := x.Clone()
		if err := x.SolveUpperRight(u); err != ErrSingular {
			t.Fatalf("n=%d zero at %d: err = %v, want ErrSingular", c.n, c.at, err)
		}
		if !bitIdentical(x, before) {
			t.Fatalf("n=%d zero at %d: receiver modified on a singular U", c.n, c.at)
		}
	}
}

// TestTriangularSolvesAllocateNothing pins the two panel solves at the
// engine's block sizes to zero allocations per call: their operand views
// stay on the stack and the packed GEMM's scratch comes from its pool.
func TestTriangularSolvesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race matrix")
	}
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{32, 64} {
		u := RandomWellConditioned(n, rng)
		x := Random(n, n, rng)
		if err := x.SolveUpperRight(u); err != nil { // warm the GEMM pool
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := x.SolveUpperRight(u); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("n=%d: SolveUpperRight allocates %.2f per call", n, avg)
		}
		if avg := testing.AllocsPerRun(50, func() { u.SolveLowerUnitNumerics(x, Strict) }); avg != 0 {
			t.Errorf("n=%d: SolveLowerUnitNumerics(Strict) allocates %.2f per call", n, avg)
		}
	}
}

func TestTriangularSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := 1 + int(uint(seed)%6)
		u := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				u.Set(i, j, 0.5+rng.Float64())
			}
		}
		x := Random(n, 2, rng)
		b := Mul(u, x)
		if err := u.SolveUpper(b); err != nil {
			return false
		}
		return b.EqualApprox(x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, rand.New(rand.NewSource(42)))
	b := Random(4, 4, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("Random is not deterministic for equal seeds")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if v := a.At(i, j); v < -1 || v >= 1 {
				t.Fatalf("Random entry %v outside [-1,1)", v)
			}
		}
	}
}

func TestRandomWellConditionedSolvable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := RandomWellConditioned(8, rng)
	if err := FactorNoPivot(m); err != nil {
		t.Fatalf("well-conditioned matrix reported singular: %v", err)
	}
}
