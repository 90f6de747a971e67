package core

import (
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/grid"
)

// TestTheorem1NonDecreasingIsOptimal verifies §4.2's Theorem 1 empirically:
// over every arrangement of the cycle-times (4! = 24 matrices on 2×2, 720
// on 2×3), the best objective is attained by a non-decreasing arrangement —
// i.e. the restricted search of SolveGlobalExact loses nothing.
func TestTheorem1NonDecreasingIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, dims := range [][2]int{{2, 2}, {2, 3}} {
		p, q := dims[0], dims[1]
		for trial := 0; trial < 5; trial++ {
			times := make([]float64, p*q)
			for i := range times {
				times[i] = 0.1 + rng.Float64()
			}
			bestAll := math.Inf(-1)
			var bestArr *grid.Arrangement
			total, err := grid.EnumerateAll(times, p, q, func(arr *grid.Arrangement) bool {
				sol, _, err := SolveArrangementExactOpt(arr, ExactOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if obj := sol.Objective(); obj > bestAll+1e-12 {
					bestAll = obj
					bestArr = arr
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			wantTotal := factorial(p * q) // distinct values almost surely
			if total != wantTotal {
				t.Fatalf("%d×%d: enumerated %d arrangements, want %d", p, q, total, wantTotal)
			}
			restricted, _, err := SolveGlobalExact(times, p, q)
			if err != nil {
				t.Fatal(err)
			}
			if restricted.Objective() < bestAll-1e-9 {
				t.Fatalf("%d×%d: non-decreasing search %v below global best %v (at\n%s)",
					p, q, restricted.Objective(), bestAll, bestArr)
			}
		}
	}
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// TestSpeedBound checks the aggregate-speed upper bound: every feasible
// solution satisfies (Σr)(Σc) = Σ_ij r_i·c_j ≤ Σ_ij 1/t_ij (each term is
// bounded by its constraint), with equality exactly at perfect balance.
func TestSpeedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(3)
		q := 1 + rng.Intn(3)
		times := make([]float64, p*q)
		speed := 0.0
		for i := range times {
			times[i] = 0.1 + rng.Float64()
			speed += 1 / times[i]
		}
		heur, err := SolveHeuristic(times, p, q, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if heur.Objective() > speed+1e-9 {
			t.Fatalf("heuristic objective %v above speed bound %v", heur.Objective(), speed)
		}
		exact, _, err := SolveGlobalExact(times, p, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Objective() > speed+1e-9 {
			t.Fatalf("exact objective %v above speed bound %v", exact.Objective(), speed)
		}
	}
	// Equality at perfect balance (rank-1 grid).
	sol, ok := SolveRank1(grid.MustNew([][]float64{{1, 2}, {3, 6}}), 0)
	if !ok {
		t.Fatal("rank-1 not detected")
	}
	speed := 1.0 + 0.5 + 1.0/3 + 1.0/6
	if math.Abs(sol.Objective()-speed) > 1e-12 {
		t.Fatalf("perfect balance objective %v != total speed %v", sol.Objective(), speed)
	}
}

// TestEnumerateAllCounts cross-checks the unrestricted enumerator.
func TestEnumerateAllCounts(t *testing.T) {
	n, err := grid.EnumerateAll([]float64{1, 2, 3, 4}, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("4 distinct values on 2×2: %d arrangements, want 24", n)
	}
	// Duplicates collapse: {1,1,2,2} has 4!/(2!2!) = 6 distinct matrices.
	n, err = grid.EnumerateAll([]float64{1, 1, 2, 2}, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("{1,1,2,2}: %d arrangements, want 6", n)
	}
	// Early stop.
	calls := 0
	if _, err := grid.EnumerateAll([]float64{1, 2, 3, 4}, 2, 2, func(*grid.Arrangement) bool {
		calls++
		return calls < 4
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("early stop after %d calls", calls)
	}
	if _, err := grid.EnumerateAll([]float64{1, 2}, 2, 2, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
