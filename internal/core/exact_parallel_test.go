package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hetgrid/internal/grid"
	"hetgrid/internal/leakcheck"
)

// exactEqualSolutions fails the test unless a and b are bit-identical in
// objective, arrangement, R and C.
func exactEqualSolutions(t testing.TB, label string, a, b *Solution) {
	t.Helper()
	if math.Float64bits(a.Objective()) != math.Float64bits(b.Objective()) {
		t.Fatalf("%s: objective %v != %v", label, a.Objective(), b.Objective())
	}
	if !a.Arr.Equal(b.Arr) {
		t.Fatalf("%s: arrangements differ:\n%svs\n%s", label, a.Arr, b.Arr)
	}
	for i := range a.R {
		if math.Float64bits(a.R[i]) != math.Float64bits(b.R[i]) {
			t.Fatalf("%s: R[%d] = %v != %v", label, i, a.R[i], b.R[i])
		}
	}
	for j := range a.C {
		if math.Float64bits(a.C[j]) != math.Float64bits(b.C[j]) {
			t.Fatalf("%s: C[%d] = %v != %v", label, j, a.C[j], b.C[j])
		}
	}
}

// walkTrees returns C(p+q−2, p−1), the number of acceptable trees the walk
// visits in every p×q arrangement, degenerate or not.
func walkTrees(p, q int) int {
	n := 1
	for k := 1; k < p; k++ {
		n = n * (q - 1 + k) / k
	}
	return n
}

// checkGlobalCounters holds a global solve's counters to their closed
// form: every non-decreasing arrangement the enumerator emits is searched
// whole, C(p+q−2, p−1) visited trees of p^(q−1)·q^(p−1) apiece.
func checkGlobalCounters(t testing.TB, label string, times []float64, p, q int, stats *ExactStats) {
	t.Helper()
	n, err := grid.EnumerateNonDecreasing(times, p, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := 1
	for k := 1; k < q; k++ {
		all *= p
	}
	for k := 1; k < p; k++ {
		all *= q
	}
	want := ExactStats{TreesVisited: n * walkTrees(p, q), Arrangements: n, TreesTheoretical: n * all}
	if *stats != want {
		t.Fatalf("%s: counters %+v, closed form %+v", label, *stats, want)
	}
}

// TestWorkerCountEquivalenceProperty is the worker-count contract of the
// exact search: for every worker count the returned solution is
// bit-identical to the one-worker search's, and all three ExactStats
// counters agree exactly and match their closed form. Over 200 randomized
// cycle-time sets across 2×2…3×4 grids.
func TestWorkerCountEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive property test")
	}
	type shape struct{ p, q, seeds int }
	shapes := []shape{
		{2, 2, 60}, {2, 3, 50}, {3, 2, 40}, {2, 4, 30}, {3, 3, 14}, {3, 4, 6},
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	total := 0
	for _, sh := range shapes {
		total += sh.seeds
	}
	if total < 200 {
		t.Fatalf("property test covers %d seeds, want at least 200", total)
	}
	for _, sh := range shapes {
		for seed := 0; seed < sh.seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*sh.p+100*sh.q) + int64(seed)))
			times := make([]float64, sh.p*sh.q)
			for i := range times {
				times[i] = 0.05 + rng.Float64()
			}
			serial, serialStats, err := SolveGlobalExact(times, sh.p, sh.q)
			if err != nil {
				t.Fatalf("%dx%d seed %d: serial: %v", sh.p, sh.q, seed, err)
			}
			checkGlobalCounters(t, gridLabel(sh.p, sh.q), times, sh.p, sh.q, serialStats)
			for _, w := range workerCounts {
				par, parStats, err := SolveGlobalExactOpt(times, sh.p, sh.q, ExactOptions{Workers: w})
				if err != nil {
					t.Fatalf("%dx%d seed %d workers %d: %v", sh.p, sh.q, seed, w, err)
				}
				label := gridLabel(sh.p, sh.q)
				exactEqualSolutions(t, label, par, serial)
				if *parStats != *serialStats {
					t.Fatalf("%s seed %d workers %d: stats diverge: parallel %+v serial %+v",
						label, seed, w, *parStats, *serialStats)
				}
			}
		}
	}
}

// TestPrunedVisitsFewerTreesIdenticalSolutions checks the walk against the
// brute force over every spanning tree. The fixed arrangements pin the tree
// counts: a rank-1 grid, where all 81 trees are tight and acceptable at its
// one vertex and the walk visits 6; a degenerate 3×4 with 14 acceptable
// trees of 432, of which the walk visits 10; and generic random grids,
// whose acceptable trees are the C(p+q−2, p−1) vertices of the feasible
// polyhedron. The global solver matches the brute force over every
// non-decreasing arrangement — bit for bit on generic input, within 1e-14
// on tied input — its counters match their closed form, and it visits
// strictly fewer trees than the theory counts.
func TestPrunedVisitsFewerTreesIdenticalSolutions(t *testing.T) {
	type fixedCase struct {
		label               string
		arr                 *grid.Arrangement
		acceptable, visited int
		generic             bool
	}
	cases := []fixedCase{
		{"rank-1 3x3", grid.MustNew([][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}}), 81, 6, false},
		{"degenerate 3x4", grid.MustNew([][]float64{{1, 1, 2, 2}, {2, 3, 3, 5}, {5, 5, 8, 8}}), 14, 10, false},
	}
	rng := rand.New(rand.NewSource(7100))
	for p := 2; p <= 4; p++ {
		for q := 2; q <= 4; q++ {
			for trial := 0; trial < 3; trial++ {
				tm := make([][]float64, p)
				for i := range tm {
					tm[i] = make([]float64, q)
					for j := range tm[i] {
						tm[i][j] = 0.25 + 2*rng.Float64()
					}
				}
				n := walkTrees(p, q)
				cases = append(cases, fixedCase{"random " + gridLabel(p, q), grid.MustNew(tm), n, n, true})
			}
		}
	}
	for _, c := range cases {
		if n := len(bruteForceAcceptable(c.arr)); n != c.acceptable {
			t.Fatalf("%s: brute force finds %d acceptable trees, want %d", c.label, n, c.acceptable)
		}
		_, stats, err := SolveArrangementExactOpt(c.arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.TreesVisited != c.visited {
			t.Fatalf("%s: visited %d trees, want %d", c.label, stats.TreesVisited, c.visited)
		}
		checkWalk(t, c.label, c.arr, c.generic)
	}

	visited, theoretical := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		p, q := 2+rng.Intn(2), 2+rng.Intn(2)
		times := make([]float64, p*q)
		generic := seed%4 != 0
		for i := range times {
			times[i] = 0.05 + rng.Float64()
			if !generic {
				times[i] = float64(1 + rng.Intn(3))
			}
		}
		sol, stats, err := SolveGlobalExact(times, p, q)
		if err != nil {
			t.Fatal(err)
		}
		label := gridLabel(p, q)
		checkGlobalCounters(t, label, times, p, q, stats)
		var best *Solution
		bestObj := math.Inf(-1)
		if _, err := grid.EnumerateNonDecreasing(times, p, q, func(arr *grid.Arrangement) bool {
			if b := bruteForceBest(arr); b.obj > bestObj {
				best, bestObj = b.sol(arr.Clone()), b.obj
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got := sol.Objective(); math.Abs(got-bestObj) > 1e-14*bestObj {
			t.Fatalf("%s seed %d: objective %v, brute force %v", label, seed, got, bestObj)
		}
		if generic {
			exactEqualSolutions(t, label, sol, best)
		}
		visited += stats.TreesVisited
		theoretical += stats.TreesTheoretical
	}
	if visited >= theoretical {
		t.Fatalf("the walk never cut the search: %d vs %d trees", visited, theoretical)
	}
}

// TestSolveArrangementExactParallelMatchesSerial: a single fixed
// arrangement is one work item, so every worker count returns the
// one-worker search's solution and counters.
func TestSolveArrangementExactParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		tm := make([][]float64, 3)
		for i := range tm {
			tm[i] = make([]float64, 4)
			for j := range tm[i] {
				tm[i][j] = 0.1 + rng.Float64()
			}
		}
		arr := grid.MustNew(tm)
		serial, serialStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, runtime.NumCPU()} {
			par, parStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			exactEqualSolutions(t, "3x4 fixed", par, serial)
			if *parStats != *serialStats {
				t.Fatalf("workers %d: stats diverge: %+v vs %+v", w, *parStats, *serialStats)
			}
		}
	}
}

// TestGlobalExactMatchesBruteForceOnTies: on tied inputs, where many
// arrangements and trees share an objective, the global optimum is the
// brute force's best over every arrangement — 300 draws of integer
// cycle-times 1..3 on a 3×3 grid and 100 draws of {1, 100} on a 2×4 grid,
// each from a fixed seed.
func TestGlobalExactMatchesBruteForceOnTies(t *testing.T) {
	sets := []struct {
		p, q, draws int
		values      []float64
	}{
		{3, 3, 300, []float64{1, 2, 3}},
		{2, 4, 100, []float64{1, 100}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, set := range sets {
		for draw := 0; draw < set.draws; draw++ {
			times := make([]float64, set.p*set.q)
			for i := range times {
				times[i] = set.values[rng.Intn(len(set.values))]
			}
			sol, _, err := SolveGlobalExact(times, set.p, set.q)
			if err != nil {
				t.Fatal(err)
			}
			bestObj := math.Inf(-1)
			if _, err := grid.EnumerateNonDecreasing(times, set.p, set.q, func(arr *grid.Arrangement) bool {
				bestObj = math.Max(bestObj, bruteForceBest(arr).obj)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if got := sol.Objective(); math.Abs(got-bestObj) > 1e-14*bestObj {
				t.Fatalf("%s times %v: objective %v, brute force %v", gridLabel(set.p, set.q), times, got, bestObj)
			}
		}
	}
}

// TestParallelWithDuplicateTimes exercises the tie-break path: duplicated
// cycle-times create symmetric arrangements with exactly equal objectives,
// where only the deterministic total order keeps worker counts consistent.
func TestParallelWithDuplicateTimes(t *testing.T) {
	cases := [][]float64{
		{1, 1, 1, 1},
		{1, 2, 1, 2},
		{1, 1, 2, 2, 3, 3},
		{2, 2, 2, 1, 1, 1, 3, 3, 3},
	}
	for _, times := range cases {
		var p, q int
		switch len(times) {
		case 4:
			p, q = 2, 2
		case 6:
			p, q = 2, 3
		case 9:
			p, q = 3, 3
		}
		serial, _, err := SolveGlobalExact(times, p, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, runtime.NumCPU()} {
			par, _, err := SolveGlobalExactOpt(times, p, q, ExactOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			exactEqualSolutions(t, "dup-times", par, serial)
		}
	}

	// A fixed 3×4 arrangement with repeated times: ties among its 432
	// spanning trees, searched as one work item whatever the worker count.
	arr := grid.MustNew([][]float64{{1, 1, 2, 2}, {1, 2, 2, 3}, {2, 2, 3, 3}})
	serial, serialStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serialStats.TreesTheoretical != 432 {
		t.Fatalf("K_{3,4} has 432 spanning trees, stats say %d", serialStats.TreesTheoretical)
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		par, parStats, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		exactEqualSolutions(t, "dup-times 3x4 fixed", par, serial)
		if *parStats != *serialStats {
			t.Fatalf("workers %d: stats diverge: %+v vs %+v", w, *parStats, *serialStats)
		}
	}
}

// TestSearchProducerErrorJoinsWorkers: when the arrangement producer fails
// (a cycle-time the grid rejects), the search returns the grid's error and
// every worker goroutine it started has exited.
func TestSearchProducerErrorJoinsWorkers(t *testing.T) {
	times := []float64{1, 2, 3, math.Inf(1)}
	_, want := grid.EnumerateNonDecreasing(times, 2, 2, func(*grid.Arrangement) bool { return true })
	if want == nil {
		t.Fatal("grid accepted an infinite cycle-time")
	}
	start := runtime.NumGoroutine()
	_, _, err := SolveGlobalExactOpt(times, 2, 2, ExactOptions{Workers: 4})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want the grid's %v", err, want)
	}
	leakcheck.Settle(t, start)
}
