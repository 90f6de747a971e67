package core

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hetgrid/internal/grid"
)

func TestExactRank1PerfectBalance(t *testing.T) {
	// Figure 1: [[1,2],[3,6]] is rank-1, so the exact optimum saturates all
	// four processors and reaches objective (1+1/3)(1+1/2) = 2.
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	sol, stats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreesVisited != 4 {
		t.Fatalf("K_{2,2} has 4 spanning trees, visited %d", stats.TreesVisited)
	}
	if math.Abs(sol.Objective()-2) > 1e-12 {
		t.Fatalf("objective = %v, want 2", sol.Objective())
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("mean workload = %v, want 1 (perfect balance)", sol.MeanWorkload())
	}
}

func TestExactImperfectExample(t *testing.T) {
	// §3.1.2: changing t22 to 5 makes perfect balance impossible. The exact
	// optimum keeps the Figure-1 shares (r = (1, 1/3), c = (1, 1/2)) and
	// leaves P22 idle one sixth of the time.
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective()-2) > 1e-12 {
		t.Fatalf("objective = %v, want 2", sol.Objective())
	}
	b := sol.Workload()
	if math.Abs(b[1][1]-5.0/6.0) > 1e-12 {
		t.Fatalf("P22 workload = %v, want 5/6 (idle every sixth step)", b[1][1])
	}
	for _, idx := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		if math.Abs(b[idx[0]][idx[1]]-1) > 1e-12 {
			t.Fatalf("P%d%d workload = %v, want 1", idx[0]+1, idx[1]+1, b[idx[0]][idx[1]])
		}
	}
	if sol.MeanWorkload() >= 1 {
		t.Fatal("imperfect grid cannot have mean workload 1")
	}
}

func TestExactFeasibleAndTreeTight(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.Intn(3)
		q := 1 + rng.Intn(3)
		tm := make([][]float64, p)
		for i := range tm {
			tm[i] = make([]float64, q)
			for j := range tm[i] {
				tm[i][j] = 0.1 + rng.Float64()
			}
		}
		arr := grid.MustNew(tm)
		sol, stats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Feasible(0) {
			t.Fatalf("exact solution infeasible: max workload %v", sol.maxWorkload())
		}
		if stats.TreesAcceptable < 1 {
			t.Fatal("no acceptable tree counted")
		}
		// r_1 is fixed to 1 by the solver.
		if sol.R[0] != 1 {
			t.Fatalf("r_1 = %v, want 1", sol.R[0])
		}
		// At least p+q-1 constraints are tight.
		tight := 0
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				if math.Abs(sol.R[i]*arr.T[i][j]*sol.C[j]-1) < 1e-9 {
					tight++
				}
			}
		}
		if tight < p+q-1 {
			t.Fatalf("%d tight constraints, want at least %d", tight, p+q-1)
		}
	}
}

func TestExactBeatsRandomFeasible(t *testing.T) {
	// The exact objective must dominate any feasible solution we can
	// construct by randomly picking r and scaling c maximally.
	rng := rand.New(rand.NewSource(62))
	arr := grid.MustNew([][]float64{{0.3, 0.7}, {0.5, 0.9}})
	sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exactObj := sol.Objective()
	for trial := 0; trial < 200; trial++ {
		r := []float64{1, 0.05 + 2*rng.Float64()}
		c := make([]float64, 2)
		for j := range c {
			// Maximal feasible c_j for this r.
			c[j] = math.Inf(1)
			for i := range r {
				if v := 1 / (r[i] * arr.T[i][j]); v < c[j] {
					c[j] = v
				}
			}
		}
		obj := (r[0] + r[1]) * (c[0] + c[1])
		if obj > exactObj+1e-9 {
			t.Fatalf("random feasible solution %v beat exact %v (r=%v)", obj, exactObj, r)
		}
	}
}

func TestSolve2x2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 50; trial++ {
		tm := [][]float64{
			{0.1 + rng.Float64(), 0.1 + rng.Float64()},
			{0.1 + rng.Float64(), 0.1 + rng.Float64()},
		}
		arr := grid.MustNew(tm)
		general, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		closed, err := Solve2x2Exact(arr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(general.Objective()-closed.Objective()) > 1e-9 {
			t.Fatalf("2×2 closed form %v != general %v for %v",
				closed.Objective(), general.Objective(), tm)
		}
	}
}

func TestSolve2x2RejectsWrongShape(t *testing.T) {
	if _, err := Solve2x2Exact(grid.MustNew([][]float64{{1, 2, 3}})); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestGlobalExactPicksBestArrangement(t *testing.T) {
	// Cycle-times {1,2,3,6} can form the rank-1 matrix [[1,2],[3,6]] (or
	// [[1,3],[2,6]]), so the global optimum is perfectly balanced.
	sol, stats, err := SolveGlobalExact([]float64{6, 1, 3, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-9 {
		t.Fatalf("global exact missed the rank-1 arrangement: mean load %v", sol.MeanWorkload())
	}
	if stats.Arrangements != 2 {
		t.Fatalf("2×2 distinct values: %d arrangements, want 2", stats.Arrangements)
	}
	if !sol.Arr.IsNonDecreasing() {
		t.Fatal("returned arrangement not non-decreasing")
	}
}

func TestGlobalExactDominatesFixedArrangements(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	times := make([]float64, 4)
	for trial := 0; trial < 20; trial++ {
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		global, _, err := SolveGlobalExact(times, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Every individual non-decreasing arrangement is dominated.
		if _, err := grid.EnumerateNonDecreasing(times, 2, 2, func(arr *grid.Arrangement) bool {
			sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Objective() > global.Objective()+1e-9 {
				t.Fatalf("arrangement beat global: %v > %v", sol.Objective(), global.Objective())
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGlobalExactSizeMismatch(t *testing.T) {
	if _, _, err := SolveGlobalExact([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected size error")
	}
}

func TestExactSingleRowAndColumn(t *testing.T) {
	// 1×q and p×1 grids reduce to the 1D problem: perfect balance.
	sol, _, err := SolveArrangementExactOpt(grid.MustNew([][]float64{{1, 2, 4}}), ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("1×3 mean workload %v, want 1", sol.MeanWorkload())
	}
	sol, _, err = SolveArrangementExactOpt(grid.MustNew([][]float64{{1}, {5}}), ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("2×1 mean workload %v, want 1", sol.MeanWorkload())
	}
}

func TestExact3x3TreeCount(t *testing.T) {
	arr := grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	full, fullStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.TreesVisited != 81 {
		t.Fatalf("K_{3,3} unpruned: visited %d trees, want 81", fullStats.TreesVisited)
	}
	pruned, prunedStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prunedStats.TreesVisited >= fullStats.TreesVisited {
		t.Fatalf("pruning did not cut the search: %d vs %d trees", prunedStats.TreesVisited, fullStats.TreesVisited)
	}
	if prunedStats.BranchesPruned == 0 {
		t.Fatal("no branches pruned on a strongly heterogeneous grid")
	}
	if prunedStats.TreesTheoretical != 81 || fullStats.TreesTheoretical != 81 {
		t.Fatalf("TreesTheoretical = %d/%d, want 81", prunedStats.TreesTheoretical, fullStats.TreesTheoretical)
	}
	if pr := prunedStats.PruneRatio(); pr <= 0 || pr >= 1 {
		t.Fatalf("prune ratio %v out of (0,1)", pr)
	}
	if math.Float64bits(pruned.Objective()) != math.Float64bits(full.Objective()) {
		t.Fatalf("pruned objective %v != unpruned %v", pruned.Objective(), full.Objective())
	}
	for i := range pruned.R {
		if pruned.R[i] != full.R[i] {
			t.Fatalf("R[%d] differs: %v vs %v", i, pruned.R[i], full.R[i])
		}
	}
	for j := range pruned.C {
		if pruned.C[j] != full.C[j] {
			t.Fatalf("C[%d] differs: %v vs %v", j, pruned.C[j], full.C[j])
		}
	}
}

// bruteForceSpanningTrees is an independent reference for the tree walk: it
// tries every (p+q−1)-edge subset of K_{p,q} (edge e joins row e/q to
// column e%q), keeps those that connect all p+q vertices, and returns them
// as ascending edge lists in ascending lexicographic order.
func bruteForceSpanningTrees(p, q int) [][]int {
	n, m := p+q, p*q
	var trees [][]int
	for mask := 0; mask < 1<<m; mask++ {
		if bits.OnesCount(uint(mask)) != n-1 {
			continue
		}
		comp := make([]int, n)
		for v := range comp {
			comp[v] = v
		}
		var edges []int
		for e := 0; e < m; e++ {
			if mask&(1<<e) == 0 {
				continue
			}
			edges = append(edges, e)
			from, to := comp[p+e%q], comp[e/q]
			for v := range comp {
				if comp[v] == from {
					comp[v] = to
				}
			}
		}
		if slices.Max(comp) == slices.Min(comp) {
			trees = append(trees, edges)
		}
	}
	slices.SortFunc(trees, slices.Compare[[]int])
	return trees
}

// TestWalkEnumeratesSpanningTrees is the enumeration contract of the exact
// search: on every grid up to 4×4 the unpruned walk reaches exactly the
// spanning trees of K_{p,q} the brute force finds, each once, in strictly
// ascending lexicographic edge order — the order the tie-break relies on —
// and p^(q−1)·q^(p−1) of them (Scoins' formula), also when the searcher is
// reused.
func TestWalkEnumeratesSpanningTrees(t *testing.T) {
	for p := 1; p <= 4; p++ {
		for q := 1; q <= 4; q++ {
			want := bruteForceSpanningTrees(p, q)
			tm := make([][]float64, p)
			for i := range tm {
				tm[i] = make([]float64, q)
				for j := range tm[i] {
					tm[i][j] = float64(1 + i + j)
				}
			}
			s := newTreeSearcher(p, q, ExactOptions{NoPrune: true})
			var got [][]int
			// Walk twice on one searcher, as a worker reuses its searcher
			// across arrangements; the second walk must repeat the first.
			for pass := 0; pass < 2; pass++ {
				s.resetArrangement(grid.MustNew(tm), 0)
				var trees [][]int
				s.walk(0, func() { trees = append(trees, slices.Clone(s.chosen)) })
				if pass > 0 && !slices.EqualFunc(trees, got, slices.Equal[[]int]) {
					t.Fatalf("%s: a reused searcher walked %d trees, a fresh one %d", gridLabel(p, q), len(trees), len(got))
				}
				got = trees
			}
			for k := 1; k < len(got); k++ {
				if slices.Compare(got[k-1], got[k]) >= 0 {
					t.Fatalf("%s: tree %d %v does not follow %v", gridLabel(p, q), k, got[k], got[k-1])
				}
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("%s: walk reached %d trees, brute force %d:\n%v\nvs\n%v", gridLabel(p, q), len(got), len(want), got, want)
			}
			scoins := int(math.Pow(float64(p), float64(q-1)) * math.Pow(float64(q), float64(p-1)))
			if len(got) != scoins {
				t.Fatalf("%s: %d spanning trees, want p^(q-1)·q^(p-1) = %d", gridLabel(p, q), len(got), scoins)
			}
		}
	}
}

// TestSpanningTreesCountAndOverflow holds spanningTrees against exact
// big-integer arithmetic: the count wherever it fits an int, an error
// wherever it does not.
func TestSpanningTreesCountAndOverflow(t *testing.T) {
	maxInt := big.NewInt(math.MaxInt)
	for p := 1; p <= 24; p++ {
		for q := 1; q <= 24; q++ {
			want := new(big.Int).Exp(big.NewInt(int64(p)), big.NewInt(int64(q-1)), nil)
			want.Mul(want, new(big.Int).Exp(big.NewInt(int64(q)), big.NewInt(int64(p-1)), nil))
			got, err := spanningTrees(p, q)
			if fits := want.Cmp(maxInt) <= 0; fits != (err == nil) {
				t.Fatalf("%d×%d: count %v, error %v", p, q, want, err)
			}
			if err == nil && int64(got) != want.Int64() {
				t.Fatalf("%d×%d: %d spanning trees, want %v", p, q, got, want)
			}
		}
	}
	if n, err := spanningTrees(0, 3); n != 0 || err != nil {
		t.Fatalf("empty side: %d, %v", n, err)
	}
}
