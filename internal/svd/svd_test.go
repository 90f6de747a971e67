package svd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetgrid/internal/matrix"
)

// reconstruct returns U * diag(S) * Vᵀ.
func reconstruct(d *SVD) *matrix.Dense {
	m, _ := d.U.Dims()
	n, _ := d.V.Dims()
	out := matrix.New(m, n)
	for k, s := range d.S {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				out.Add(i, j, d.U.At(i, k)*s*d.V.At(j, k))
			}
		}
	}
	return out
}

func TestDecomposeKnownDiagonal(t *testing.T) {
	a := matrix.NewFromSlice(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	d, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, s := range d.S {
		if math.Abs(s-want[i]) > 1e-12 {
			t.Fatalf("S = %v, want %v", d.S, want)
		}
	}
}

func TestDecomposeReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][2]int{{3, 3}, {5, 3}, {3, 5}, {6, 6}, {1, 4}, {4, 1}} {
		a := matrix.Random(dims[0], dims[1], rng)
		d, err := Decompose(a)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !reconstruct(d).EqualApprox(a, 1e-10) {
			t.Fatalf("%v: U S Vᵀ != A", dims)
		}
	}
}

func TestDecomposeOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := matrix.Random(6, 4, rng)
	d, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	utu := matrix.Mul(d.U.T(), d.U)
	if !utu.EqualApprox(matrix.Identity(4), 1e-10) {
		t.Fatal("UᵀU != I")
	}
	vtv := matrix.Mul(d.V.T(), d.V)
	if !vtv.EqualApprox(matrix.Identity(4), 1e-10) {
		t.Fatal("VᵀV != I")
	}
}

func TestSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(seed int64) bool {
		m := 1 + int(uint(seed)%6)
		n := 1 + int(uint(seed>>8)%6)
		d, err := Decompose(matrix.Random(m, n, rng))
		if err != nil {
			return false
		}
		for i := 1; i < len(d.S); i++ {
			if d.S[i] > d.S[i-1] || d.S[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFrobeniusMatchesSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := matrix.Random(5, 4, rng)
	d, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range d.S {
		sum += s * s
	}
	fro := a.FrobeniusNorm()
	if math.Abs(math.Sqrt(sum)-fro) > 1e-10 {
		t.Fatalf("sqrt(sum s²) = %v, ||A||_F = %v", math.Sqrt(sum), fro)
	}
}

func TestRank1IsEckartYoung(t *testing.T) {
	// The rank-1 truncation must beat any other rank-1 candidate we try.
	rng := rand.New(rand.NewSource(35))
	a := matrix.Random(4, 4, rng)
	d, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	s1, u1, v1 := d.Rank1()
	best := matrix.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			best.Set(i, j, s1*u1[i]*v1[j])
		}
	}
	bestErr := matrix.Sub(a, best).FrobeniusNorm()
	// Theoretical optimum is sqrt(s2² + s3² + s4²).
	want := 0.0
	for _, s := range d.S[1:] {
		want += s * s
	}
	want = math.Sqrt(want)
	if math.Abs(bestErr-want) > 1e-9 {
		t.Fatalf("rank-1 error %v, Eckart–Young bound %v", bestErr, want)
	}
	// Random competitors must not beat it.
	for trial := 0; trial < 20; trial++ {
		comp := matrix.RandomRank1(4, 4, rng)
		if matrix.Sub(a, comp).FrobeniusNorm() < bestErr-1e-12 {
			t.Fatal("random rank-1 matrix beat the SVD truncation")
		}
	}
}

func TestRank1SignDeterministic(t *testing.T) {
	a := matrix.NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	_, u1a, v1a := mustDecompose(t, a).Rank1()
	_, u1b, v1b := mustDecompose(t, a.Clone()).Rank1()
	for i := range u1a {
		if u1a[i] != u1b[i] {
			t.Fatal("Rank1 u not deterministic")
		}
	}
	for j := range v1a {
		if v1a[j] != v1b[j] {
			t.Fatal("Rank1 v not deterministic")
		}
	}
	// Dominant component of u must be positive.
	maxAbs, maxVal := 0.0, 0.0
	for _, u := range u1a {
		if math.Abs(u) > maxAbs {
			maxAbs, maxVal = math.Abs(u), u
		}
	}
	if maxVal < 0 {
		t.Fatal("sign normalization failed")
	}
}

func mustDecompose(t *testing.T, a *matrix.Dense) *SVD {
	t.Helper()
	d, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDominantTripleMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(5)
		n := 2 + rng.Intn(5)
		// Positive matrices (like inverse cycle-times) guarantee a simple
		// dominant singular value by Perron–Frobenius.
		a := matrix.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, 0.1+rng.Float64())
			}
		}
		d := mustDecompose(t, a)
		s1, u1, v1 := d.Rank1()
		s, u, v, err := DominantTriple(a, 1e-13, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-s1) > 1e-9*s1 {
			t.Fatalf("dominant s %v vs Jacobi %v", s, s1)
		}
		for i := range u {
			if math.Abs(u[i]-u1[i]) > 1e-7 {
				t.Fatalf("u mismatch: %v vs %v", u, u1)
			}
		}
		for j := range v {
			if math.Abs(v[j]-v1[j]) > 1e-7 {
				t.Fatalf("v mismatch: %v vs %v", v, v1)
			}
		}
	}
}

func TestDominantTripleZeroMatrix(t *testing.T) {
	s, _, _, err := DominantTriple(matrix.New(3, 3), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("s = %v for zero matrix", s)
	}
}

func TestDominantTripleEmpty(t *testing.T) {
	s, u, v, err := DominantTriple(matrix.New(0, 0), 0, 0)
	if err != nil || s != 0 || u != nil || v != nil {
		t.Fatalf("empty: s=%v u=%v v=%v err=%v", s, u, v, err)
	}
}

func TestDecomposeRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := matrix.RandomRank1(4, 4, rng)
	d := mustDecompose(t, a)
	if d.S[0] <= 0 {
		t.Fatal("dominant singular value should be positive")
	}
	for _, s := range d.S[1:] {
		if s > 1e-10*d.S[0] {
			t.Fatalf("rank-1 input should have one nonzero singular value, got %v", d.S)
		}
	}
	if !reconstruct(d).EqualApprox(a, 1e-10) {
		t.Fatal("rank-deficient reconstruction failed")
	}
}
