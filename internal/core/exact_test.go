package core

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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
	if stats.TreesVisited != 2 {
		t.Fatalf("all 4 spanning trees of K_{2,2} are tight at the one vertex; the walk visits C(2, 1) = 2, visited %d", stats.TreesVisited)
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
		if stats.TreesVisited < 1 {
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

// TestExactThinGridsBeyond64Edges takes the visited set's key past one
// 64-bit word: a 1×70 arrangement has one tree, its star, with r = [1] and
// c_j = 1/t_j bit for bit, and a 2×33 arrangement (66 edges) has
// C(33, 1) = 33 acceptable trees — where int has 64 bits; with 32, K_{2,33}'s
// tree count overflows and the search refuses the grid.
func TestExactThinGridsBeyond64Edges(t *testing.T) {
	rng := rand.New(rand.NewSource(4402))
	row := make([]float64, 70)
	for j := range row {
		row[j] = 0.25 + 2*rng.Float64()
	}
	sol, stats, err := SolveArrangementExactOpt(grid.MustNew([][]float64{row}), ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreesVisited != 1 || len(sol.R) != 1 || sol.R[0] != 1 {
		t.Fatalf("1x70: visited %d trees, r = %v; want 1 tree and r = [1]", stats.TreesVisited, sol.R)
	}
	for j, v := range row {
		if math.Float64bits(sol.C[j]) != math.Float64bits(1/v) {
			t.Fatalf("1x70: c_%d = %v, want 1/t = %v", j, sol.C[j], 1/v)
		}
	}
	tm := [][]float64{make([]float64, 33), make([]float64, 33)}
	for i := range tm {
		for j := range tm[i] {
			tm[i][j] = 0.25 + 2*rng.Float64()
		}
	}
	_, stats, err = SolveArrangementExactOpt(grid.MustNew(tm), ExactOptions{Workers: 1})
	if _, overflow := spanningTrees(2, 33); overflow != nil {
		if err == nil {
			t.Fatal("2x33: the search accepted a grid whose tree count overflows int")
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreesVisited != 33 {
		t.Fatalf("2x33: visited %d trees, want 33", stats.TreesVisited)
	}
}

func TestExact3x3TreeCount(t *testing.T) {
	arr := grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if n := len(bruteForceSpanningTrees(3, 3)); n != 81 {
		t.Fatalf("K_{3,3}: brute force found %d spanning trees, want 81", n)
	}
	sol, stats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreesVisited != 6 {
		t.Fatalf("K_{3,3}: visited %d trees, want the C(4, 2) = 6 vertices", stats.TreesVisited)
	}
	if stats.TreesTheoretical != 81 {
		t.Fatalf("TreesTheoretical = %d, want 81", stats.TreesTheoretical)
	}
	if pr := stats.PruneRatio(); pr <= 0 || pr >= 1 {
		t.Fatalf("prune ratio %v out of (0,1)", pr)
	}
	exactEqualSolutions(t, "3x3", sol, bruteForceBest(arr).sol(arr))
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

var (
	bruteTreesMu sync.Mutex
	bruteTrees   = map[[2]int][][]int{}
)

// bruteTree is one spanning tree of the brute-force reference with its
// shares (r_1 = 1) and objective.
type bruteTree struct {
	edges []int
	r, c  []float64
	obj   float64
}

func (b bruteTree) sol(arr *grid.Arrangement) *Solution {
	return &Solution{Arr: arr, R: b.r, C: b.c}
}

// bruteForceAcceptable is the exact search's reference, sharing nothing
// with the walk: over every spanning tree of K_{p,q} (p·q ≤ 16) it
// propagates the shares from r_1 = 1 in repeated passes over the edges and
// keeps, in lexicographic edge order, the trees none of whose products
// exceeds 1 beyond FeasibilityTol.
func bruteForceAcceptable(arr *grid.Arrangement) []bruteTree {
	p, q := arr.P, arr.Q
	bruteTreesMu.Lock()
	trees, ok := bruteTrees[[2]int{p, q}]
	if !ok {
		trees = bruteForceSpanningTrees(p, q)
		bruteTrees[[2]int{p, q}] = trees
	}
	bruteTreesMu.Unlock()
	var acc []bruteTree
	for _, edges := range trees {
		r, c := make([]float64, p), make([]float64, q)
		r[0] = 1
		for known := 1; known < p+q; {
			for _, e := range edges {
				i, j := e/q, e%q
				switch {
				case r[i] != 0 && c[j] == 0:
					c[j] = 1 / (r[i] * arr.T[i][j])
					known++
				case c[j] != 0 && r[i] == 0:
					r[i] = 1 / (arr.T[i][j] * c[j])
					known++
				}
			}
		}
		b := bruteTree{edges: edges, r: r, c: c}
		if b.sol(arr).Feasible(FeasibilityTol) {
			b.obj = b.sol(arr).Objective()
			acc = append(acc, b)
		}
	}
	return acc
}

// bruteForceBest is the brute force's optimum: the highest objective, the
// lexicographically smallest tree on exact ties.
func bruteForceBest(arr *grid.Arrangement) bruteTree {
	acc := bruteForceAcceptable(arr)
	best := acc[0]
	for _, b := range acc[1:] {
		if b.obj > best.obj {
			best = b
		}
	}
	return best
}

// sameShares reports whether two trees' shares name the same vertex.
func sameShares(a, b bruteTree) bool {
	x, y := append(slices.Clone(a.r), a.c...), append(slices.Clone(b.r), b.c...)
	for k := range x {
		if math.Abs(x[k]-y[k]) > 1e-9*math.Max(x[k], y[k]) {
			return false
		}
	}
	return true
}

// checkWalk holds the walk on arr to the brute force: every tree it
// reaches is acceptable to the brute force, there are C(p+q−2, p−1) of
// them, they represent every vertex of the brute force's acceptable set,
// and the solver's objective is within 1e-14 relative of the brute force's
// best, bit-identical in R and C when generic says the input has no ties.
func checkWalk(t testing.TB, label string, arr *grid.Arrangement, generic bool) {
	t.Helper()
	p, q := arr.P, arr.Q
	acc := bruteForceAcceptable(arr)
	s := newTreeSearcher(p, q)
	s.searchArrangement(arr, 0)
	var walked []bruteTree
	for at := 0; at < len(s.queue); at += p + q - 1 {
		tree := s.queue[at : at+p+q-1]
		k := slices.IndexFunc(acc, func(b bruteTree) bool { return slices.Equal(b.edges, tree) })
		if k < 0 {
			t.Fatalf("%s: walked tree %v is not acceptable to the brute force", label, tree)
		}
		walked = append(walked, acc[k])
	}
	binom := walkTrees(p, q)
	if len(walked) != binom || s.stats.TreesVisited != binom {
		t.Fatalf("%s: walked %d trees (counted %d), want C(p+q-2, p-1) = %d", label, len(walked), s.stats.TreesVisited, binom)
	}
	for _, b := range acc {
		if !slices.ContainsFunc(walked, func(w bruteTree) bool { return sameShares(w, b) }) {
			t.Fatalf("%s: the walk misses the vertex of tree %v (r %v, c %v)", label, b.edges, b.r, b.c)
		}
	}
	sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	best := bruteForceBest(arr)
	if got := sol.Objective(); math.Abs(got-best.obj) > 1e-14*best.obj {
		t.Fatalf("%s: objective %v, brute force %v", label, got, best.obj)
	}
	if generic {
		exactEqualSolutions(t, label, sol, best.sol(arr))
	}
}

// TestWalkMatchesBruteForce holds the walk to the brute force on 512
// arrangements, 32 of every grid from 1×1 to 4×4: generic, integer cycle
// times from {1, 2, 3, 5}, rank-1 (integer and rounded outer products) and
// all-equal, each visited by reusing one searcher per shape as a worker
// does.
func TestWalkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4401))
	n := 0
	for p := 1; p <= 4; p++ {
		for q := 1; q <= 4; q++ {
			for trial := 0; trial < 8; trial++ {
				a, b := make([]float64, p), make([]float64, q)
				for i := range a {
					a[i] = float64(1 + rng.Intn(3))
				}
				for j := range b {
					b[j] = 0.5 + rng.Float64()
					if trial%2 == 0 {
						b[j] = float64(1 + rng.Intn(3))
					}
				}
				all := 0.25 + 2*rng.Float64()
				kinds := []struct {
					name    string
					generic bool
					at      func(i, j int) float64
				}{
					{"generic", true, func(int, int) float64 { return 0.25 + 2*rng.Float64() }},
					{"ties", false, func(int, int) float64 { return []float64{1, 2, 3, 5}[rng.Intn(4)] }},
					{"rank-1", false, func(i, j int) float64 { return a[i] * b[j] }},
					{"all-equal", false, func(int, int) float64 { return all }},
				}
				for _, k := range kinds {
					tm := make([][]float64, p)
					for i := range tm {
						tm[i] = make([]float64, q)
						for j := range tm[i] {
							tm[i][j] = k.at(i, j)
						}
					}
					checkWalk(t, gridLabel(p, q)+" "+k.name, grid.MustNew(tm), k.generic)
					n++
				}
			}
		}
	}
	if n < 500 {
		t.Fatalf("checked %d arrangements, want at least 500", n)
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

// FuzzExactWalk holds the walk to the brute force (checkWalk) on grids up
// to 4×4. The first two bytes give p and q; then each cell reads one byte:
// an even byte b is the integer cycle-time 1 + (b/2)%9, so ties are common,
// and an odd one takes the next byte too for a continuous time in
// [0.25, 2.25). A missing byte reads as 0.
func FuzzExactWalk(f *testing.F) {
	for _, tm := range [][][]float64{
		{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}}, // rank-1
		{{5, 5, 5, 5}, {5, 5, 5, 5}, {5, 5, 5, 5}, {5, 5, 5, 5}},
		{{1, 1, 2, 2}, {2, 3, 3, 5}, {5, 5, 8, 8}},
	} {
		data := []byte{byte(len(tm) - 1), byte(len(tm[0]) - 1)}
		for _, row := range tm {
			for _, v := range row {
				data = append(data, byte(2*(v-1)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p, q := 1+next()%4, 1+next()%4
		tm := make([][]float64, p)
		for i := range tm {
			tm[i] = make([]float64, q)
			for j := range tm[i] {
				if b := next(); b%2 == 0 {
					tm[i][j] = float64(1 + b/2%9)
				} else {
					tm[i][j] = 0.25 + float64(b<<8|next())/32768
				}
			}
		}
		checkWalk(t, fmt.Sprint(tm), grid.MustNew(tm), false)
	})
}
