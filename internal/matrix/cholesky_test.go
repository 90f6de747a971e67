package matrix

import (
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
