package hetgrid

import (
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

// Cholesky is the right-looking blocked Cholesky factorization A = L·Lᵀ,
// the third ScaLAPACK factorization alongside LU and QR.
const Cholesky Kernel = QR + 1

// GridChoice reports the outcome of a grid-shape search.
type GridChoice struct {
	// P and Q are the chosen grid dimensions.
	P, Q int
	// Selected indexes the input cycle-times actually placed on the grid
	// (all of them unless subsets were allowed), fastest first.
	Selected []int
	// Candidates is the number of shapes evaluated.
	Candidates int
}

// ChooseGrid solves the full §4.1 problem: given n processors, pick the
// grid dimensions p×q ≤ n, the participating processors, and the balanced
// shares. allowSubset permits leaving the slowest machines out (needed for
// prime processor counts under an aspect constraint); minAspect constrains
// min(p,q)/max(p,q) — pass 0 to allow any shape including 1×n, or values
// toward 1 to force squarer, communication-friendlier grids.
func ChooseGrid(times []float64, allowSubset bool, minAspect float64) (*Plan, *GridChoice, error) {
	res, err := plan.Solve(plan.Request{
		Times:       times,
		AllowSubset: allowSubset,
		MinAspect:   minAspect,
	})
	if err != nil {
		return nil, nil, err
	}
	shape := res.Shape
	choice := &GridChoice{P: shape.P, Q: shape.Q, Selected: shape.Selected, Candidates: shape.Candidates}
	return planFromResult(res), choice, nil
}

// RandomSPDMatrix returns a random symmetric positive definite matrix,
// convenient for exercising the Cholesky kernel.
func RandomSPDMatrix(n int, rng interface{ Float64() float64 }) *Matrix {
	return matrix.RandomSPD(n, rng)
}

// TraceSimulation runs a kernel simulation with operation tracing enabled
// and returns both the result and a textual Gantt chart of processor
// activity (width columns wide). Useful for inspecting where the schedule
// loses time.
func TraceSimulation(k Kernel, d Distribution, plan *Plan, opts SimOptions, width int) (*SimResult, string, error) {
	res, err := simulate(k, d, plan, opts, true)
	if err != nil {
		return nil, "", err
	}
	p, q := d.Dims()
	return res, Gantt(res.Spans, p*q, width), nil
}
