// Package core implements the 2D heterogeneous load-balancing strategies of
// Beaumont, Boudet, Rastello and Robert (IPPS 2000): the optimization
// problem Obj1/Obj2 over row shares r_i and column shares c_j, the exact
// spanning-tree solver for a fixed arrangement, the global exact solver over
// non-decreasing arrangements, the rank-1 fast path, and the polynomial
// SVD-based heuristic with iterative refinement.
//
// The model: processor P_ij (cycle-time t_ij, the time to update one r×r
// block) is assigned an r_i × c_j rectangle of every block panel. Within one
// panel-time it performs r_i·t_ij·c_j work. The solver maximizes
//
//	Obj2:  (Σ_i r_i)(Σ_j c_j)   subject to   r_i·t_ij·c_j ≤ 1,
//
// the number of blocks the grid processes per time unit; equivalently it
// minimizes the normalized makespan Obj1. The scale of the r_i is a free
// gauge (multiplying all r_i by λ and dividing all c_j by λ changes
// nothing), so solutions are reported with r_1 chosen by each algorithm.
package core

import (
	"fmt"

	"hetgrid/internal/grid"
)

// FeasibilityTol is the default relative tolerance used when checking the
// constraints r_i·t_ij·c_j ≤ 1.
const FeasibilityTol = 1e-9

// Solution is an assignment of row shares R and column shares C to the rows
// and columns of an arrangement.
type Solution struct {
	Arr *grid.Arrangement
	// R[i] is the share of matrix rows given to grid row i; C[j] the share
	// of matrix columns given to grid column j. Both are positive rationals
	// in the continuous relaxation; scaling to integers is done by the
	// distribution layer.
	R, C []float64
}

// Objective returns (Σr_i)(Σc_j), the Obj2 value: the number of unit blocks
// the grid completes per time unit. Larger is better.
func (s *Solution) Objective() float64 {
	sr, sc := 0.0, 0.0
	for _, v := range s.R {
		sr += v
	}
	for _, v := range s.C {
		sc += v
	}
	return sr * sc
}

// Workload returns the matrix B with B[i][j] = r_i·t_ij·c_j: the fraction
// of each panel-time that processor P_ij spends computing. A feasible
// solution has all entries ≤ 1; a perfectly balanced one has all entries
// equal to 1.
func (s *Solution) Workload() [][]float64 {
	b := make([][]float64, s.Arr.P)
	for i := range b {
		b[i] = make([]float64, s.Arr.Q)
		for j := range b[i] {
			b[i][j] = s.R[i] * s.Arr.T[i][j] * s.C[j]
		}
	}
	return b
}

// MeanWorkload returns the average entry of the workload matrix B — the
// quantity plotted in the paper's Figure 6 ("on average, the processors
// work X% of the time").
func (s *Solution) MeanWorkload() float64 {
	sum := 0.0
	for i := 0; i < s.Arr.P; i++ {
		for j := 0; j < s.Arr.Q; j++ {
			sum += s.R[i] * s.Arr.T[i][j] * s.C[j]
		}
	}
	return sum / float64(s.Arr.P*s.Arr.Q)
}

// maxWorkload returns the largest entry of B. For a feasible solution this
// is at most 1, and the processor attaining it is the bottleneck.
func (s *Solution) maxWorkload() float64 {
	max := 0.0
	for i := 0; i < s.Arr.P; i++ {
		for j := 0; j < s.Arr.Q; j++ {
			if v := s.R[i] * s.Arr.T[i][j] * s.C[j]; v > max {
				max = v
			}
		}
	}
	return max
}

// Feasible reports whether every constraint r_i·t_ij·c_j ≤ 1 holds within
// relative tolerance tol (≤ 0 selects FeasibilityTol).
func (s *Solution) Feasible(tol float64) bool {
	if tol <= 0 {
		tol = FeasibilityTol
	}
	return s.maxWorkload() <= 1+tol
}

// NormalizedMakespan returns Obj1 for the solution: the time per matrix
// element, max_ij(r_i·t_ij·c_j) / ((Σr_i)(Σc_j)). Smaller is better. For a
// solution with an active constraint (max workload 1) this equals
// 1/Objective().
func (s *Solution) NormalizedMakespan() float64 {
	return s.maxWorkload() / s.Objective()
}

// Clone returns a deep copy of the solution (sharing the arrangement, which
// is treated as immutable).
func (s *Solution) Clone() *Solution {
	return &Solution{
		Arr: s.Arr,
		R:   append([]float64(nil), s.R...),
		C:   append([]float64(nil), s.C...),
	}
}

// String summarizes the solution.
func (s *Solution) String() string {
	return fmt.Sprintf("Solution{%d×%d, obj=%.4f, mean load=%.4f, r=%v, c=%v}",
		s.Arr.P, s.Arr.Q, s.Objective(), s.MeanWorkload(), s.R, s.C)
}
