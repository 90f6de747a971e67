package core

import "hetgrid/internal/grid"

// SolveRank1 returns the perfectly balanced solution for a rank-1
// arrangement (§4.3.2): r_i = 1/t_i1 and c_j = t_11/t_1j make every
// constraint tight (r_i·t_ij·c_j = 1 because every 2×2 minor of a rank-1
// matrix vanishes), so no processor is ever idle. The boolean reports
// whether the arrangement is rank-1 within tol (≤ 0 for the default); when
// false, the returned solution is nil.
func SolveRank1(arr *grid.Arrangement, tol float64) (*Solution, bool) {
	if !arr.IsRank1(tol) {
		return nil, false
	}
	r := make([]float64, arr.P)
	c := make([]float64, arr.Q)
	for i := 0; i < arr.P; i++ {
		r[i] = 1 / arr.T[i][0]
	}
	for j := 0; j < arr.Q; j++ {
		c[j] = arr.T[0][0] / arr.T[0][j]
	}
	return &Solution{Arr: arr, R: r, C: c}, true
}
