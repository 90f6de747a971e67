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
// with one worker and with GOMAXPROCS workers asked for. Workers split the
// search by arrangement, so both rows run the one arrangement as one
// search; the parallel row, and the 4×4 size (4,096 spanning trees), show
// what splitting a single arrangement's trees across workers would buy
// (EXPERIMENTS.md "Exact-solver scaling").
func BenchmarkSolveArrangementExact(b *testing.B) {
	modes := []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{Workers: 1}},
		{"parallel", ExactOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {3, 4}, {4, 4}} {
		arr, err := grid.RowMajor(randomTimes(dims[0]*dims[1], 7), dims[0], dims[1])
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			b.Run(gridLabel(dims[0], dims[1])+"/"+m.name, func(b *testing.B) {
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
// numbers (EXPERIMENTS.md "Exact-solver scaling"): the exhaustive
// seed-equivalent search (noprune, workers=1), the serial branch-and-bound
// and the parallel solver on every CPU this run may use, on the grid sizes
// the paper's exact method targets, each row with the spanning trees it
// visited and the share of the theoretical space it never did. On 3×4 the
// branch-and-bound rows run about 2.3× (serial) and 2.7× (parallel) faster
// than noprune on a 2-core Xeon VM (EXPERIMENTS.md). On one CPU the
// parallel row would time coordination overhead, so it is skipped.
func BenchmarkSolveGlobalExact(b *testing.B) {
	modes := []struct {
		name string
		opts ExactOptions
	}{
		{"noprune", ExactOptions{Workers: 1, NoPrune: true}},
		{"serial", ExactOptions{Workers: 1}},
		{"parallel", ExactOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	for _, dims := range [][2]int{{2, 3}, {3, 3}, {3, 4}} {
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
