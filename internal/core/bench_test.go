package core

import (
	"math/rand"
	"runtime"
	"testing"

	"hetgrid/internal/grid"
)

func randomTimes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	for i := range times {
		times[i] = 0.05 + rng.Float64()
	}
	return times
}

func BenchmarkRankOneStep(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(gridLabel(n, n), func(b *testing.B) {
			arr, err := grid.RowMajor(randomTimes(n*n, int64(n)), n, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RankOneStep(arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDominantTriple times the power iteration of one rank-one step
// on a positive n×n matrix.
func BenchmarkDominantTriple(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(gridLabel(n, n), func(b *testing.B) {
			a := randomTimes(n*n, int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := dominantTriple(a, n, n, 1e-13, 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveHeuristic(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(gridLabel(n, n), func(b *testing.B) {
			times := randomTimes(n*n, int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveHeuristic(times, n, n, HeuristicOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveArrangementExact times the fixed-arrangement exact search
// with one worker and with GOMAXPROCS workers asked for, on generic grids
// from 2×2 to 6×6 (46,656 spanning trees, 252 of them acceptable) and on an
// all-equal 5×5, a homogeneous cluster, where every one of the 390,625
// trees is tight at one vertex and the walk still visits 70. Workers split
// the search by arrangement, so both rows run the one arrangement as one
// search (EXPERIMENTS.md "Exact-solver scaling").
func BenchmarkSolveArrangementExact(b *testing.B) {
	modes := []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{Workers: 1}},
		{"parallel", ExactOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	type arrangement struct {
		name  string
		times []float64
		p, q  int
	}
	var arrs []arrangement
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {3, 4}, {4, 4}, {5, 5}, {6, 6}} {
		p, q := dims[0], dims[1]
		arrs = append(arrs, arrangement{gridLabel(p, q), randomTimes(p*q, 7), p, q})
	}
	equal := make([]float64, 25)
	for i := range equal {
		equal[i] = 1
	}
	arrs = append(arrs, arrangement{"5x5-equal", equal, 5, 5})
	for _, a := range arrs {
		arr, err := grid.RowMajor(a.times, a.p, a.q)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			b.Run(a.name+"/"+m.name, func(b *testing.B) {
				if m.name == "parallel" && m.opts.Workers == 1 {
					b.Skip("GOMAXPROCS=1: nothing to run in parallel")
				}
				var stats *ExactStats
				for i := 0; i < b.N; i++ {
					var err error
					if _, stats, err = SolveArrangementExactOpt(arr, m.opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.TreesVisited), "trees/op")
			})
		}
	}
}

func BenchmarkSolveGlobalExact3x3(b *testing.B) {
	times := randomTimes(9, 11)
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveGlobalExact(times, 3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveGlobalExact is the producer of the exact-solver scaling
// numbers (EXPERIMENTS.md "Exact-solver scaling"): the serial search and
// the parallel one on every CPU this run may use, on the grid sizes the
// paper's exact method targets, each row with the spanning trees it
// visited and the share of the theoretical space it never did. The 4×4
// rows search all 24,024 arrangements (480,480 trees), under a second
// each. On one CPU the parallel row would time coordination overhead, so
// it is skipped.
func BenchmarkSolveGlobalExact(b *testing.B) {
	modes := []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{Workers: 1}},
		{"parallel", ExactOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	for _, dims := range [][2]int{{2, 3}, {3, 3}, {3, 4}, {4, 4}} {
		p, q := dims[0], dims[1]
		times := randomTimes(p*q, 11)
		for _, m := range modes {
			b.Run(gridLabel(p, q)+"/"+m.name, func(b *testing.B) {
				if m.name == "parallel" && m.opts.Workers == 1 {
					b.Skip("GOMAXPROCS=1: nothing to run in parallel")
				}
				var stats *ExactStats
				for i := 0; i < b.N; i++ {
					var err error
					if _, stats, err = SolveGlobalExactOpt(times, p, q, m.opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.TreesVisited), "trees/op")
				b.ReportMetric(stats.PruneRatio(), "prune_ratio")
			})
		}
	}
}

func BenchmarkChooseShape(b *testing.B) {
	times := randomTimes(16, 13)
	for i := 0; i < b.N; i++ {
		if _, err := ChooseShape(times, ShapeOptions{AllowSubset: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func gridLabel(p, q int) string {
	d := func(n int) string {
		if n < 10 {
			return string(rune('0' + n))
		}
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return d(p) + "x" + d(q)
}
