package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/grid"
)

// paperTimes are the cycle-times of the §4.4 worked example.
var paperTimes = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}

func TestWorkedExampleFirstStep(t *testing.T) {
	// §4.4.2: first step on T = [[1,2,3],[4,5,6],[7,8,9]].
	arr, err := grid.RowMajor(paperTimes, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := RankOneStep(arr)
	if err != nil {
		t.Fatal(err)
	}
	wantR := []float64{1.1661, 0.3675, 0.2100}
	wantC := []float64{0.6803, 0.4288, 0.2859}
	for i := range wantR {
		if math.Abs(sol.R[i]-wantR[i]) > 5e-4 {
			t.Fatalf("r = %v, want ≈ %v", sol.R, wantR)
		}
	}
	for j := range wantC {
		if math.Abs(sol.C[j]-wantC[j]) > 5e-4 {
			t.Fatalf("c = %v, want ≈ %v", sol.C, wantC)
		}
	}
	wantB := [][]float64{
		{0.7933, 1, 1},
		{1, 0.7879, 0.6303},
		{1, 0.7203, 0.5402},
	}
	b := sol.Workload()
	for i := range wantB {
		for j := range wantB[i] {
			if math.Abs(b[i][j]-wantB[i][j]) > 5e-4 {
				t.Fatalf("B[%d][%d] = %v, want ≈ %v", i, j, b[i][j], wantB[i][j])
			}
		}
	}
	if got := sol.MeanWorkload(); math.Abs(got-0.8302) > 5e-4 {
		t.Fatalf("mean workload = %v, want 0.8302", got)
	}
	if got := sol.Objective(); math.Abs(got-2.4322) > 5e-4 {
		t.Fatalf("objective = %v, want 2.4322", got)
	}
}

func TestWorkedExampleTOpt(t *testing.T) {
	arr, _ := grid.RowMajor(paperTimes, 3, 3)
	sol, err := RankOneStep(arr)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1.2606, 2.0000, 3.0000},
		{4.0000, 6.3464, 9.5195},
		{7.0000, 11.1061, 16.6592},
	}
	for i := range want {
		for j := range want[i] {
			// T_opt = 1/(r_i·c_j): the matrix the refinement sorts against.
			if got := 1 / (sol.R[i] * sol.C[j]); math.Abs(got-want[i][j]) > 2e-3 {
				t.Fatalf("T_opt[%d][%d] = %v, want ≈ %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestWorkedExampleRearrangeStep(t *testing.T) {
	// §4.4.3: the first refinement produces [[1,2,3],[4,5,7],[6,8,9]].
	arr, _ := grid.RowMajor(paperTimes, 3, 3)
	sol, err := RankOneStep(arr)
	if err != nil {
		t.Fatal(err)
	}
	next := rearrange(arr, sol, newHeurScratch(9))
	want := grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 7}, {6, 8, 9}})
	if !next.Equal(want) {
		t.Fatalf("refined arrangement:\n%swant:\n%s", next, want)
	}
}

func TestWorkedExampleFullConvergence(t *testing.T) {
	// §4.4.3: objectives 2.4322 → 2.5065 → 2.5889, convergence in 3 steps,
	// final arrangement [[1,2,3],[4,6,8],[5,7,9]].
	res, err := SolveHeuristic(paperTimes, 3, 3, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("worked example did not converge")
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
	wantObjs := []float64{2.4322, 2.5065, 2.5889}
	if len(res.Objectives) != len(wantObjs) {
		t.Fatalf("objective history %v, want 3 entries", res.Objectives)
	}
	for k, want := range wantObjs {
		if math.Abs(res.Objectives[k]-want) > 5e-4 {
			t.Fatalf("objective[%d] = %v, want %v", k, res.Objectives[k], want)
		}
	}
	if math.Abs(res.FirstObjective-2.4322) > 5e-4 {
		t.Fatalf("first objective = %v", res.FirstObjective)
	}
	wantArr := grid.MustNew([][]float64{{1, 2, 3}, {4, 6, 8}, {5, 7, 9}})
	if !res.Solution.Arr.Equal(wantArr) {
		t.Fatalf("converged arrangement:\n%swant:\n%s", res.Solution.Arr, wantArr)
	}
	wantTau := 2.5889/2.4322 - 1
	if math.Abs(res.Tau-wantTau) > 1e-3 {
		t.Fatalf("tau = %v, want ≈ %v", res.Tau, wantTau)
	}
}

func TestHeuristicNoRefine(t *testing.T) {
	res, err := SolveHeuristic(paperTimes, 3, 3, HeuristicOptions{NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 || !res.Converged {
		t.Fatalf("NoRefine: iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	if math.Abs(res.Objective()-2.4322) > 5e-4 {
		t.Fatalf("NoRefine objective = %v, want first-step 2.4322", res.Objective())
	}
	if res.Tau != 0 {
		t.Fatalf("NoRefine tau = %v, want 0", res.Tau)
	}
}

func TestHeuristicFeasibleWithTightRowsAndColumns(t *testing.T) {
	// After the two scaling passes every constraint holds, every row has a
	// tight constraint and every column keeps one (§4.4.2).
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(4)
		q := 1 + rng.Intn(4)
		times := make([]float64, p*q)
		for i := range times {
			times[i] = 0.05 + rng.Float64()
		}
		arr, _ := grid.RowMajor(times, p, q)
		sol, err := RankOneStep(arr)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Feasible(0) {
			t.Fatalf("infeasible heuristic step: max load %v", sol.maxWorkload())
		}
		b := sol.Workload()
		for i := 0; i < p; i++ {
			rowMax := 0.0
			for j := 0; j < q; j++ {
				rowMax = math.Max(rowMax, b[i][j])
			}
			if math.Abs(rowMax-1) > 1e-9 {
				t.Fatalf("row %d has no tight constraint (max %v)", i, rowMax)
			}
		}
		for j := 0; j < q; j++ {
			colMax := 0.0
			for i := 0; i < p; i++ {
				colMax = math.Max(colMax, b[i][j])
			}
			if math.Abs(colMax-1) > 1e-9 {
				t.Fatalf("column %d has no tight constraint (max %v)", j, colMax)
			}
		}
	}
}

func TestHeuristicNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 15; trial++ {
		p, q := 2, 2
		if trial%3 == 0 {
			q = 3
		}
		times := make([]float64, p*q)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		res, err := SolveHeuristic(times, p, q, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := SolveGlobalExact(times, p, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective() > exact.Objective()+1e-9 {
			t.Fatalf("heuristic %v beat exact %v for %v", res.Objective(), exact.Objective(), times)
		}
	}
}

func TestRankOneStepPerfectOnRank1Arrangement(t *testing.T) {
	// When the arrangement itself is rank-1, T^inv equals its own best
	// rank-1 approximation, so a single step saturates every processor.
	arr := grid.MustNew([][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}})
	sol, err := RankOneStep(arr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-9 {
		t.Fatalf("rank-1 arrangement mean workload %v, want 1", sol.MeanWorkload())
	}
}

// TestRankOneStepNonConvergenceFallback drives the step's fallback: on
// T = [[1, H/2], [H, 1/0.999]] the two singular values of T^inv are nearly
// equal, so the power iteration runs out of budget and gramSquaringTriple
// supplies the triple. The objectives are the ones a full Jacobi SVD gives.
func TestRankOneStepNonConvergenceFallback(t *testing.T) {
	for _, c := range []struct{ h, want float64 }{
		{1e4, 0.0010108108441007498},
		{1e6, 0.00066978235214152032},
	} {
		arr := grid.MustNew([][]float64{{1, c.h / 2}, {c.h, 1 / 0.999}})
		tinv := make([]float64, 4)
		for i := range 2 {
			for j := range 2 {
				tinv[i*2+j] = 1 / arr.T[i][j]
			}
		}
		if _, _, _, err := dominantTriple(tinv, 2, 2, 1e-14, 2000); !errors.Is(err, errNoConvergence) {
			t.Fatalf("H=%g: power iteration err = %v, want ErrNoConvergence", c.h, err)
		}
		sol, err := RankOneStep(arr)
		if err != nil {
			t.Fatal(err)
		}
		if got := sol.Objective(); math.Abs(got-c.want) > 1e-9*c.want {
			t.Fatalf("H=%g: objective %.17g, want %.17g", c.h, got, c.want)
		}
	}
}

// TestDominantTripleMatchesReference holds the power iteration to
// references that need no second SVD, at 1e-9 relative on s and 1e-7 on
// every vector entry: closed forms on 2×2 matrices, the exact triple of an
// outer product x·yᵀ, and on larger positive matrices the residuals
// ‖Av − s·u‖ and ‖Aᵀu − s·v‖ with positive u and v (by Perron–Frobenius
// only the dominant pair is positive) and gramSquaringTriple's triple.
// Negating A must leave s and u and negate v: the entry of u with the
// largest magnitude is positive either way.
func TestDominantTripleMatchesReference(t *testing.T) {
	near := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	check := func(a []float64, m, n int, wantS float64, wantU, wantV []float64) {
		t.Helper()
		s, u, v, err := dominantTriple(a, m, n, 1e-13, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-wantS) > 1e-9*wantS {
			t.Fatalf("s = %v, want %v", s, wantS)
		}
		near("u", u, wantU)
		near("v", v, wantV)
		neg := make([]float64, len(a))
		for i, x := range a {
			neg[i] = -x
		}
		sn, un, vn, err := dominantTriple(neg, m, n, 1e-13, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if sn != s {
			t.Fatalf("s(−A) = %v, s(A) = %v", sn, s)
		}
		near("u(−A)", un, u)
		for j := range vn {
			vn[j] = -vn[j]
		}
		near("−v(−A)", vn, v)
	}
	rng := rand.New(rand.NewSource(36))
	positive := func(k int) []float64 {
		x := make([]float64, k)
		for i := range x {
			x[i] = 0.1 + rng.Float64()
		}
		return x
	}

	for range 20 {
		// σ₁ = (‖(a+d, b−c)‖ + ‖(a−d, b+c)‖)/2, and u, v are the leading
		// eigenvectors of AAᵀ and AᵀA, at half the angle of their
		// off-diagonal against their diagonal difference.
		a := positive(4)
		s := (math.Hypot(a[0]+a[3], a[1]-a[2]) + math.Hypot(a[0]-a[3], a[1]+a[2])) / 2
		phi := math.Atan2(2*(a[0]*a[2]+a[1]*a[3]), a[0]*a[0]+a[1]*a[1]-a[2]*a[2]-a[3]*a[3]) / 2
		theta := math.Atan2(2*(a[0]*a[1]+a[2]*a[3]), a[0]*a[0]+a[2]*a[2]-a[1]*a[1]-a[3]*a[3]) / 2
		check(a, 2, 2, s, []float64{math.Cos(phi), math.Sin(phi)}, []float64{math.Cos(theta), math.Sin(theta)})
	}

	for range 20 {
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		x, y := positive(m), positive(n)
		a := make([]float64, m*n)
		for i := range m {
			for j := range n {
				a[i*n+j] = x[i] * y[j]
			}
		}
		nx, ny := norm2(x), norm2(y)
		scale(x, 1/nx)
		scale(y, 1/ny)
		check(a, m, n, nx*ny, x, y)
	}

	for range 20 {
		m, n := 2+rng.Intn(5), 2+rng.Intn(5)
		a := positive(m * n)
		s, u, v := gramSquaringTriple(a, m, n)
		check(a, m, n, s, u, v)
		for i := range m {
			r := -s * u[i]
			for j := range n {
				r += a[i*n+j] * v[j]
			}
			if math.Abs(r) > 1e-7*s || !(u[i] > 0) {
				t.Fatalf("(Av − s·u)[%d] = %v with u = %v", i, r, u)
			}
		}
		for j := range n {
			r := -s * v[j]
			for i := range m {
				r += a[i*n+j] * u[i]
			}
			if math.Abs(r) > 1e-7*s || !(v[j] > 0) {
				t.Fatalf("(Aᵀu − s·v)[%d] = %v with v = %v", j, r, v)
			}
		}
	}
}

func TestDominantTripleZeroMatrix(t *testing.T) {
	s, _, _, err := dominantTriple(make([]float64, 9), 3, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("s = %v for zero matrix", s)
	}
}

func TestDominantTripleEmpty(t *testing.T) {
	s, u, v, err := dominantTriple(nil, 0, 0, 0, 0)
	if err != nil || s != 0 || u != nil || v != nil {
		t.Fatalf("empty: s=%v u=%v v=%v err=%v", s, u, v, err)
	}
}

func TestHeuristicRank1MultisetDecent(t *testing.T) {
	// The multiset {1,2,3,2,4,6,3,6,9} admits a perfectly balanced
	// arrangement, but the heuristic's row-major start ([[1,2,2],...]) is
	// not it; the heuristic is still expected to land a good balance and
	// must never beat the global exact optimum.
	times := []float64{1, 2, 3, 2, 4, 6, 3, 6, 9}
	res, err := SolveHeuristic(times, 3, 3, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWorkload() < 0.75 {
		t.Fatalf("heuristic mean workload %v unexpectedly poor", res.MeanWorkload())
	}
	exact, _, err := SolveGlobalExact(times, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.MeanWorkload()-1) > 1e-9 {
		t.Fatalf("exact should find the rank-1 arrangement, mean load %v", exact.MeanWorkload())
	}
	if res.Objective() > exact.Objective()+1e-9 {
		t.Fatal("heuristic beat the exact optimum")
	}
}

func TestSolveRank1(t *testing.T) {
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	sol, ok := SolveRank1(arr, 0)
	if !ok {
		t.Fatal("rank-1 arrangement not recognized")
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("rank-1 mean workload %v, want 1", sol.MeanWorkload())
	}
	if math.Abs(sol.Objective()-2) > 1e-12 {
		t.Fatalf("rank-1 objective %v, want 2", sol.Objective())
	}
	if _, ok := SolveRank1(grid.MustNew([][]float64{{1, 2}, {3, 5}}), 0); ok {
		t.Fatal("non-rank-1 arrangement accepted")
	}
}

func TestSolveRank1GeneralScale(t *testing.T) {
	// t11 != 1 must still give a perfect balance.
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(3)
		q := 2 + rng.Intn(3)
		u := make([]float64, p)
		v := make([]float64, q)
		for i := range u {
			u[i] = 0.2 + rng.Float64()
		}
		for j := range v {
			v[j] = 0.2 + rng.Float64()
		}
		tm := make([][]float64, p)
		for i := range tm {
			tm[i] = make([]float64, q)
			for j := range tm[i] {
				tm[i][j] = u[i] * v[j]
			}
		}
		sol, ok := SolveRank1(grid.MustNew(tm), 0)
		if !ok {
			t.Fatal("rank-1 not detected")
		}
		b := sol.Workload()
		for i := range b {
			for j := range b[i] {
				if math.Abs(b[i][j]-1) > 1e-9 {
					t.Fatalf("workload[%d][%d] = %v, want 1", i, j, b[i][j])
				}
			}
		}
	}
}

// TestPerfectBalancePossible: perfect balance is possible exactly when the
// cycle-times form a rank-1 matrix (§4.3.2), and then the global exact
// optimum finds such an arrangement and keeps every processor busy.
func TestPerfectBalancePossible(t *testing.T) {
	sol, _, err := SolveGlobalExact([]float64{6, 3, 2, 1}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Arr.IsRank1(0) || math.Abs(sol.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("{1,2,3,6} admits the rank-1 arrangement [[1,2],[3,6]], got\n%smean load %v", sol.Arr, sol.MeanWorkload())
	}
	sol, _, err = SolveGlobalExact([]float64{1, 2, 3, 5}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Arr.IsRank1(0) || sol.MeanWorkload() >= 1 {
		t.Fatalf("{1,2,3,5} cannot form a rank-1 2×2 matrix, got\n%smean load %v", sol.Arr, sol.MeanWorkload())
	}
	if _, _, err := SolveGlobalExact([]float64{1, 2}, 2, 2); err == nil {
		t.Fatal("expected size error")
	}
}

func TestHeuristicSingleProcessor(t *testing.T) {
	res, err := SolveHeuristic([]float64{3}, 1, 1, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("1×1 mean workload %v", res.MeanWorkload())
	}
	if math.Abs(res.Objective()*3-1) > 1e-9 {
		t.Fatalf("1×1 objective %v, want 1/3", res.Objective())
	}
}

func TestHeuristicSingleRow(t *testing.T) {
	// A 1×q grid is rank-1: perfect balance on the first step.
	res, err := SolveHeuristic([]float64{2, 1, 4}, 1, 3, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanWorkload()-1) > 1e-9 {
		t.Fatalf("1×3 mean workload %v, want 1", res.MeanWorkload())
	}
}

func TestHeuristicObjectiveHistoryConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		times := make([]float64, n*n)
		for i := range times {
			times[i] = 0.05 + rng.Float64()
		}
		res, err := SolveHeuristic(times, n, n, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objectives) != res.Iterations {
			t.Fatalf("history %d entries for %d iterations", len(res.Objectives), res.Iterations)
		}
		// The reported solution is the best of the history.
		best := 0.0
		for _, o := range res.Objectives {
			best = math.Max(best, o)
		}
		if math.Abs(best-res.Objective()) > 1e-12 {
			t.Fatalf("solution obj %v != best history %v", res.Objective(), best)
		}
		if !res.Feasible(0) {
			t.Fatal("heuristic returned infeasible solution")
		}
		if res.Tau < -1e-12 {
			t.Fatalf("tau = %v negative beyond tolerance", res.Tau)
		}
	}
}

func TestHeuristicBadInput(t *testing.T) {
	if _, err := SolveHeuristic([]float64{1, 2, 3}, 2, 2, HeuristicOptions{}); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := SolveHeuristic([]float64{1, -1, 2, 3}, 2, 2, HeuristicOptions{}); err == nil {
		t.Fatal("expected positivity error")
	}
}

func TestRearrangeDeterministicWithTies(t *testing.T) {
	// Equal cycle-times: re-sorting must be stable and terminate at once.
	times := []float64{1, 1, 1, 1}
	res, err := SolveHeuristic(times, 2, 2, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 2 {
		t.Fatalf("homogeneous grid: converged=%v iterations=%d", res.Converged, res.Iterations)
	}
	if math.Abs(res.MeanWorkload()-1) > 1e-9 {
		t.Fatalf("homogeneous mean workload %v, want 1", res.MeanWorkload())
	}
}
