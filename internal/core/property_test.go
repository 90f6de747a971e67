package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetgrid/internal/grid"
)

// TestHeuristicPermutationInvariant: the heuristic sorts its input, so any
// permutation of the same multiset must give the identical result.
func TestHeuristicPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(2)
		times := make([]float64, n*n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		base, err := SolveHeuristic(times, n, n, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shuffled := append([]float64(nil), times...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		perm, err := SolveHeuristic(shuffled, n, n, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Objective() != perm.Objective() || base.Iterations != perm.Iterations {
			t.Fatalf("heuristic not permutation invariant: %v/%d vs %v/%d",
				base.Objective(), base.Iterations, perm.Objective(), perm.Iterations)
		}
		if !base.Solution.Arr.Equal(perm.Solution.Arr) {
			t.Fatal("arrangements differ across permutations")
		}
	}
}

// TestRearrangeFixedPointIdempotent: once the heuristic converges, another
// rearrange of the converged solution must return the same arrangement.
func TestRearrangeFixedPointIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		times := make([]float64, n*n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		res, err := SolveHeuristic(times, n, n, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			continue // cycles are possible; only fixed points are tested
		}
		// Recompute the step at the converged (final) arrangement and
		// re-sort: it must reproduce itself.
		sol, err := RankOneStep(res.FinalArrangement)
		if err != nil {
			t.Fatal(err)
		}
		next := rearrange(res.FinalArrangement, sol, newHeurScratch(n, n))
		if !next.Equal(res.FinalArrangement) {
			t.Fatalf("converged arrangement is not a rearrange fixed point:\n%svs\n%s",
				res.FinalArrangement, next)
		}
	}
}

// TestScalingInvariance: multiplying every cycle-time by a constant scales
// the objective by its inverse and leaves the workload matrix unchanged.
func TestScalingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	f := func(seed int64) bool {
		n := 2 + int(uint(seed)%2)
		scale := 0.5 + float64(uint(seed>>8)%100)/25
		times := make([]float64, n*n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		scaled := make([]float64, len(times))
		for i := range times {
			scaled[i] = times[i] * scale
		}
		a, err := SolveHeuristic(times, n, n, HeuristicOptions{})
		if err != nil {
			return false
		}
		b, err := SolveHeuristic(scaled, n, n, HeuristicOptions{})
		if err != nil {
			return false
		}
		if math.Abs(a.Objective()-b.Objective()*scale) > 1e-6*a.Objective() {
			return false
		}
		return math.Abs(a.MeanWorkload()-b.MeanWorkload()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestExactScalingInvariance: same invariance for the exact solver.
func TestExactScalingInvariance(t *testing.T) {
	arr := grid.MustNew([][]float64{{0.4, 0.9}, {0.7, 1.3}})
	scaled := grid.MustNew([][]float64{{0.8, 1.8}, {1.4, 2.6}})
	a, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SolveArrangementExactOpt(scaled, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Objective()-2*b.Objective()) > 1e-9 {
		t.Fatalf("exact objective not 1/scale-covariant: %v vs %v", a.Objective(), b.Objective())
	}
}

// TestTransposeSymmetry: transposing the arrangement swaps the roles of r
// and c but preserves the optimum.
func TestTransposeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	for trial := 0; trial < 10; trial++ {
		p, q := 2, 3
		tm := make([][]float64, p)
		for i := range tm {
			tm[i] = make([]float64, q)
			for j := range tm[i] {
				tm[i][j] = 0.1 + rng.Float64()
			}
		}
		arr := grid.MustNew(tm)
		a, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := SolveArrangementExactOpt(arr.Transpose(), ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Objective()-b.Objective()) > 1e-9 {
			t.Fatalf("transpose changed the optimum: %v vs %v", a.Objective(), b.Objective())
		}
	}
}

// TestHeuristicMonotoneImprovementRecorded: the best recorded solution's
// objective is never below the first step's.
func TestHeuristicMonotoneImprovementRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		times := make([]float64, n*n)
		for i := range times {
			times[i] = 0.05 + rng.Float64()
		}
		res, err := SolveHeuristic(times, n, n, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective() < res.FirstObjective-1e-12 {
			t.Fatalf("final objective %v below first step %v", res.Objective(), res.FirstObjective)
		}
	}
}
