package kernels

import (
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

func TestSimulateCholeskyBasics(t *testing.T) {
	arr := hetArr()
	for _, mk := range []func() distribution.Distribution{
		func() distribution.Distribution { d, _ := distribution.UniformBlockCyclic(2, 2, 16, 16); return d },
		func() distribution.Distribution { return luPanelDist(t, 16, distribution.Interleaved) },
	} {
		d := mk()
		res, err := SimulateCholesky(d, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < res.CompBound-1e-9 || res.Makespan <= 0 {
			t.Fatalf("%s: makespan %v vs bound %v", d.Name(), res.Makespan, res.CompBound)
		}
		if res.Kernel != "cholesky" {
			t.Fatalf("kernel label %q", res.Kernel)
		}
	}
}

func TestSimulateCholeskyCheaperThanLU(t *testing.T) {
	// The symmetric update touches roughly half the trailing blocks, so
	// Cholesky's compute bound is well below LU's on the same layout.
	arr := hetArr()
	d := luPanelDist(t, 24, distribution.Interleaved)
	chol, err := SimulateCholesky(d, arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := SimulateLU(d, arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chol.CompBound >= lu.CompBound {
		t.Fatalf("Cholesky bound %v not below LU bound %v", chol.CompBound, lu.CompBound)
	}
}

func TestSimulateCholeskyPanelBeatsUniform(t *testing.T) {
	arr := hetArr()
	nb := 24
	uni, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	uniRes, err := SimulateCholesky(uni, arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	panRes, err := SimulateCholesky(luPanelDist(t, nb, distribution.Interleaved), arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if panRes.Makespan >= uniRes.Makespan {
		t.Fatalf("panel %v not faster than uniform %v", panRes.Makespan, uniRes.Makespan)
	}
}

func TestSimulateCholeskyValidation(t *testing.T) {
	arr := hetArr()
	if _, err := SimulateCholesky(mustRect(t), arr, Options{}); err == nil {
		t.Fatal("rectangular block grid accepted")
	}
}

func TestReplayCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	nb, r := 6, 3
	a := matrix.RandomSPD(nb*r, rng)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayCholeskyNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Mul(rep.C, rep.C.T()).EqualApprox(a, 1e-8) {
			t.Fatalf("%s: L·Lᵀ != A", d.Name())
		}
		// Strict upper triangle is zero.
		n := nb * r
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rep.C.At(i, j) != 0 {
					t.Fatalf("%s: L(%d,%d) = %v above diagonal", d.Name(), i, j, rep.C.At(i, j))
				}
			}
		}
	}
}

func TestReplayCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	nb, r := 4, 4
	a := matrix.RandomSPD(nb*r, rng)
	dense, err := matrix.FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	rep, err := ReplayCholeskyNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.C.EqualApprox(dense.L, 1e-9) {
		t.Fatal("blocked Cholesky differs from dense factorization")
	}
}

func TestReplayCholeskyOpsMatchCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	nb, r := 6, 2
	a := matrix.RandomSPD(nb*r, rng)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayCholeskyNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		factor, solve, update, err := CholeskyOpCounts(d)
		if err != nil {
			t.Fatal(err)
		}
		for n := range rep.Ops {
			if want := factor[n] + solve[n] + update[n]; rep.Ops[n] != want {
				t.Fatalf("%s: node %d ops %d, want %d", d.Name(), n, rep.Ops[n], want)
			}
		}
	}
}

func TestCholeskyOpCountTotals(t *testing.T) {
	nb := 8
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	factor, solve, update, err := CholeskyOpCounts(d)
	if err != nil {
		t.Fatal(err)
	}
	sf, ss, su := 0, 0, 0
	for n := range factor {
		sf += factor[n]
		ss += solve[n]
		su += update[n]
	}
	wantS, wantU := 0, 0
	for k := 0; k < nb; k++ {
		wantS += nb - k - 1
		wantU += (nb - k - 1) * (nb - k) / 2
	}
	if sf != nb || ss != wantS || su != wantU {
		t.Fatalf("totals (%d,%d,%d), want (%d,%d,%d)", sf, ss, su, nb, wantS, wantU)
	}
}

func TestReplayCholeskyValidation(t *testing.T) {
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if _, err := ReplayCholeskyNumerics(d, matrix.New(8, 9), matrix.Strict); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := ReplayCholeskyNumerics(d, matrix.New(10, 10), matrix.Strict); err == nil {
		t.Fatal("indivisible order accepted")
	}
	// Indefinite matrix surfaces the positive-definiteness error.
	bad := matrix.Identity(8)
	bad.Set(0, 0, -1)
	if _, err := ReplayCholeskyNumerics(d, bad, matrix.Strict); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestReplayQRMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	nb, r := 6, 3
	n := nb * r
	a := matrix.Random(n, n, rng)
	want := matrix.FactorQR(a).R()
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayQRNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.R().EqualApprox(want, 1e-9) {
			t.Fatalf("%s: blocked R differs from unblocked R", d.Name())
		}
	}
}

func TestReplayQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	nb, r := 4, 4
	n := nb * r
	a := matrix.Random(n, n, rng)
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	rep, err := ReplayQRNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Q(r)
	// Orthogonality and reconstruction.
	if !matrix.Mul(q.T(), q).EqualApprox(matrix.Identity(n), 1e-9) {
		t.Fatal("Q not orthogonal")
	}
	if !matrix.Mul(q, rep.R()).EqualApprox(a, 1e-9) {
		t.Fatal("Q·R != A")
	}
}

func TestReplayQROpsTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	nb, r := 5, 2
	a := matrix.Random(nb*r, nb*r, rng)
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	rep, err := ReplayQRNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, o := range rep.Ops {
		total += o
	}
	// Panel k touches (nb-k) blocks, trailing (nb-k)(nb-k-1).
	want := 0
	for k := 0; k < nb; k++ {
		want += (nb - k) + (nb-k)*(nb-k-1)
	}
	if total != want {
		t.Fatalf("QR ops total %d, want %d", total, want)
	}
}

func TestReplayQRValidation(t *testing.T) {
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if _, err := ReplayQRNumerics(d, matrix.New(8, 9), matrix.Strict); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := ReplayQRNumerics(d, matrix.New(9, 9), matrix.Strict); err == nil {
		t.Fatal("indivisible order accepted")
	}
}

func TestSimulateCholeskyDeterministic(t *testing.T) {
	arr := hetArr()
	d := luPanelDist(t, 16, distribution.Interleaved)
	a, err := SimulateCholesky(d, arr, Options{FactorCost: 1.5, SolveCost: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCholesky(d, arr, Options{FactorCost: 1.5, SolveCost: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Makespan-b.Makespan) != 0 {
		t.Fatal("Cholesky simulation not deterministic")
	}
}
