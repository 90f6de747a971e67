package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{4, 2, 2, 5})
	f, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,2]].
	if f.L.At(0, 0) != 2 || f.L.At(1, 0) != 1 || f.L.At(1, 1) != 2 || f.L.At(0, 1) != 0 {
		t.Fatalf("L = %v", f.L)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	f := func(seed int64) bool {
		n := 1 + int(uint(seed)%7)
		a := RandomSPD(n, rng)
		fac, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		return Mul(fac.L, fac.L.T()).EqualApprox(a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// factorCholeskyAtSet is FactorCholesky as it was before it moved to row
// slices: the same sums in the same order, indexed through At and Set.
func factorCholeskyAtSet(a *Dense) *Dense {
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		sum := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			sum -= v * v
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
	return l
}

// TestCholeskyRowSlicesMatchAtSet pins that the row-slice factor performs
// the At/Set loop's operations in the same order: every factor, of compact
// and strided inputs, is bit-identical.
func TestCholeskyRowSlicesMatchAtSet(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	for _, n := range []int{1, 2, 7, 32, 33, 64} {
		spd := RandomSPD(n, rng)
		view := randomOperand(rng, n, n, true, false)
		view.CopyFrom(spd)
		for _, a := range []*Dense{spd, view} {
			f, err := FactorCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(f.L, factorCholeskyAtSet(a)) {
				t.Fatalf("n=%d: the row-slice factor differs from the At/Set loop", n)
			}
		}
	}
}

func TestCholeskyLowerTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	fac, err := FactorCholesky(RandomSPD(5, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if fac.L.At(i, j) != 0 {
				t.Fatalf("L(%d,%d) = %v above diagonal", i, j, fac.L.At(i, j))
			}
		}
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := FactorCholesky(New(2, 2)); err == nil {
		t.Fatal("zero matrix accepted")
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = FactorCholesky(New(2, 3))
}

func TestRandomSPDIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	a := RandomSPD(6, rng)
	if !a.EqualApprox(a.T(), 1e-12) {
		t.Fatal("RandomSPD not symmetric")
	}
}
