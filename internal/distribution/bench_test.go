package distribution

import (
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
)

func benchSolution(b *testing.B) *core.Solution {
	b.Helper()
	sol, _, err := core.SolveArrangementExactOpt(grid.MustNew([][]float64{{1, 2}, {3, 5}}), core.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return sol
}

func BenchmarkNewPanel(b *testing.B) {
	sol := benchSolution(b)
	for i := 0; i < b.N; i++ {
		if _, err := NewPanel(sol, 8, 6, Contiguous, Interleaved); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestPanel(b *testing.B) {
	sol := benchSolution(b)
	for i := 0; i < b.N; i++ {
		if _, err := BestPanel(sol, 16, 16, Contiguous, Contiguous); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPanelDistribution(b *testing.B) {
	sol := benchSolution(b)
	pan, err := NewPanel(sol, 8, 6, Contiguous, Contiguous)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pan.Distribution(64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewKL(b *testing.B) {
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	for i := 0; i < b.N; i++ {
		if _, err := NewKL(arr, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeNeighborStats(b *testing.B) {
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	d, err := NewKL(arr, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeNeighborStats(d)
	}
}
