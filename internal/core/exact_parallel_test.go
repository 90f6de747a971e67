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

// TestWorkerCountEquivalenceProperty is the worker-count contract of the
// exact search: for every worker count the returned solution is
// bit-identical to the one-worker search's, and all four ExactStats counters
// agree exactly. Over 200 randomized cycle-time sets across 2×2…3×4 grids.
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
// on tied input — and visits strictly fewer trees than the theory counts.
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
				binom := 1 // C(p+q−2, p−1)
				for k := 1; k < p; k++ {
					binom = binom * (q - 1 + k) / k
				}
				cases = append(cases, fixedCase{"random " + gridLabel(p, q), grid.MustNew(tm), binom, binom, true})
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

// TestArrangementUpperBoundValid: the ‖G·Gᵀ‖_F upper bound must dominate the
// exact optimum on every arrangement, and be tight on rank-1 grids.
func TestArrangementUpperBoundValid(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 50; trial++ {
		p, q := 1+rng.Intn(3), 1+rng.Intn(3)
		tm := make([][]float64, p)
		for i := range tm {
			tm[i] = make([]float64, q)
			for j := range tm[i] {
				tm[i][j] = 0.1 + rng.Float64()
			}
		}
		arr := grid.MustNew(tm)
		sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ub := arrangementUpperBound(arr, make([]float64, arr.P*arr.Q))
		if sol.Objective() > ub*(1+1e-12) {
			t.Fatalf("upper bound %v below exact optimum %v for %v", ub, sol.Objective(), tm)
		}
	}
	// Rank-1 grid: bound equals the perfect-balance objective Σ 1/t.
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	ub := arrangementUpperBound(arr, make([]float64, arr.P*arr.Q))
	want := 1.0 + 0.5 + 1.0/3 + 1.0/6
	if math.Abs(ub-want) > 1e-12 {
		t.Fatalf("rank-1 bound %v, want %v", ub, want)
	}
}

// TestGlobalExactSeedPruningActive: on tied inputs — 300 draws of integer
// cycle-times 1..3 on a 3×3 grid from a fixed seed — the seeded bound skips
// some arrangements (166 of 1,543), and the global optimum survives it: the
// solution's objective is the brute force's best over every arrangement.
// On continuous cycle-times such as U[0.25, 2.25) it almost never skips
// one.
func TestGlobalExactSeedPruningActive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pruned := 0
	for draw := 0; draw < 300; draw++ {
		times := make([]float64, 9)
		for i := range times {
			times[i] = float64(1 + rng.Intn(3))
		}
		sol, stats, err := SolveGlobalExact(times, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		pruned += stats.ArrangementsPruned
		if stats.ArrangementsPruned > stats.Arrangements {
			t.Fatalf("pruned %d of %d arrangements", stats.ArrangementsPruned, stats.Arrangements)
		}
		bestObj := math.Inf(-1)
		if _, err := grid.EnumerateNonDecreasing(times, 3, 3, func(arr *grid.Arrangement) bool {
			bestObj = math.Max(bestObj, bruteForceBest(arr).obj)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got := sol.Objective(); math.Abs(got-bestObj) > 1e-14*bestObj {
			t.Fatalf("times %v: objective %v, brute force %v", times, got, bestObj)
		}
	}
	if pruned == 0 {
		t.Fatal("the seeded bound skipped no arrangement on tied inputs")
	}
	t.Logf("the seeded bound skipped %d arrangements", pruned)
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

// TestAtomicFloat64Raise covers the CAS max used for the shared incumbent.
func TestAtomicFloat64Raise(t *testing.T) {
	var a atomicFloat64
	a.store(math.Inf(-1))
	a.raise(1.5)
	a.raise(0.5)
	if got := a.load(); got != 1.5 {
		t.Fatalf("raise sequence gave %v, want 1.5", got)
	}
	a.raise(2.25)
	if got := a.load(); got != 2.25 {
		t.Fatalf("raise gave %v, want 2.25", got)
	}
}
