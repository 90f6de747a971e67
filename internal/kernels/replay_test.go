package kernels

import (
	"math/rand"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// testDistributions returns the three distribution families on a 2×2 grid
// over an nb×nb block matrix.
func testDistributions(t *testing.T, nb int) []distribution.Distribution {
	t.Helper()
	arr := hetArr()
	uni, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := distribution.NewKL(arr, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 4×3 panel fits every block-matrix size the replay tests use.
	pan, err := distribution.NewPanel(sol, 4, 3, distribution.Contiguous, distribution.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := pan.Distribution(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return []distribution.Distribution{uni, pd, kl}
}

func TestReplayMMMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	nb, r := 8, 4
	a := matrix.Random(nb*r, nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	want := matrix.Mul(a, b)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayMMNumerics(d, a, b, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.C.EqualApprox(want, 1e-10) {
			t.Fatalf("%s: replay result differs from serial product", d.Name())
		}
	}
}

func TestReplayMMOpsMatchOwnership(t *testing.T) {
	nb, r := 6, 2
	rng := rand.New(rand.NewSource(102))
	a := matrix.Random(nb*r, nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayMMNumerics(d, a, b, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		p, q := d.Dims()
		owned := make([]int, p*q)
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				pi, pj := d.Owner(bi, bj)
				owned[pi*q+pj]++
			}
		}
		total := 0
		for n, ops := range rep.Ops {
			if want := owned[n] * nb; ops != want { // every step touches every owned block
				t.Fatalf("%s: node %d ops %d, want %d", d.Name(), n, ops, want)
			}
			total += ops
		}
		if total != nb*nb*nb {
			t.Fatalf("%s: total ops %d, want nb³ = %d", d.Name(), total, nb*nb*nb)
		}
	}
}

func TestReplayMMValidation(t *testing.T) {
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	a := matrix.New(8, 8)
	if _, err := ReplayMMNumerics(d, a, matrix.New(8, 9), matrix.Strict); err == nil {
		t.Fatal("non-square b accepted")
	}
	if _, err := ReplayMMNumerics(d, matrix.New(6, 6), matrix.New(6, 6), matrix.Strict); err == nil {
		t.Fatal("indivisible order accepted")
	}
	dRect, _ := distribution.UniformBlockCyclic(2, 2, 2, 4)
	if _, err := ReplayMMNumerics(dRect, a, a, matrix.Strict); err == nil {
		t.Fatal("rectangular block grid accepted")
	}
}

func TestReplayLUReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	nb, r := 8, 3
	a := matrix.RandomWellConditioned(nb*r, rng)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayLUNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		l, u := ExtractLU(rep.C)
		if !matrix.Mul(l, u).EqualApprox(a, 1e-8) {
			t.Fatalf("%s: L·U != A", d.Name())
		}
	}
}

func TestReplayLUDistributionIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	nb, r := 6, 2
	a := matrix.RandomWellConditioned(nb*r, rng)
	dists := testDistributions(t, nb)
	base, err := ReplayLUNumerics(dists[0], a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dists[1:] {
		rep, err := ReplayLUNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.C.EqualApprox(base.C, 1e-12) {
			t.Fatalf("%s: factors differ from %s's", d.Name(), dists[0].Name())
		}
	}
}

func TestReplayLUOpsMatchSimulatorCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	nb, r := 6, 2
	a := matrix.RandomWellConditioned(nb*r, rng)
	for _, d := range testDistributions(t, nb) {
		rep, err := ReplayLUNumerics(d, a, matrix.Strict)
		if err != nil {
			t.Fatal(err)
		}
		factor, solve, update, err := LUOpCounts(d)
		if err != nil {
			t.Fatal(err)
		}
		for n := range rep.Ops {
			want := factor[n] + solve[n] + update[n]
			if rep.Ops[n] != want {
				t.Fatalf("%s: node %d ops %d, want %d (f=%d s=%d u=%d)",
					d.Name(), n, rep.Ops[n], want, factor[n], solve[n], update[n])
			}
		}
	}
}

func TestReplayLUMatchesUnpivotedDense(t *testing.T) {
	// For a diagonally dominant matrix the blocked, distributed LU must
	// produce the same factors as a plain unblocked unpivoted elimination.
	rng := rand.New(rand.NewSource(106))
	nb, r := 4, 3
	n := nb * r
	a := matrix.RandomWellConditioned(n, rng)
	dense := a.Clone()
	if err := matrix.FactorNoPivot(dense); err != nil {
		t.Fatal(err)
	}
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	rep, err := ReplayLUNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.C.EqualApprox(dense, 1e-9) {
		t.Fatal("blocked LU differs from unblocked elimination")
	}
}

func TestReplayLUValidation(t *testing.T) {
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if _, err := ReplayLUNumerics(d, matrix.New(8, 9), matrix.Strict); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if _, err := ReplayLUNumerics(d, matrix.New(10, 10), matrix.Strict); err == nil {
		t.Fatal("indivisible order accepted")
	}
	// Singular diagonal block surfaces an error.
	if _, err := ReplayLUNumerics(d, matrix.New(8, 8), matrix.Strict); err == nil {
		t.Fatal("zero matrix accepted")
	}
}

func TestExtractLU(t *testing.T) {
	packed := matrix.NewFromSlice(2, 2, []float64{4, 3, 0.5, 2})
	l, u := ExtractLU(packed)
	if l.At(0, 0) != 1 || l.At(1, 1) != 1 || l.At(1, 0) != 0.5 || l.At(0, 1) != 0 {
		t.Fatalf("L = %v", l)
	}
	if u.At(0, 0) != 4 || u.At(0, 1) != 3 || u.At(1, 1) != 2 || u.At(1, 0) != 0 {
		t.Fatalf("U = %v", u)
	}
}
