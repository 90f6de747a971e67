package onedim

import (
	"fmt"
	"math"
)

// LUSequence returns the optimal static assignment of nb column blocks to
// processors for the uni-dimensional right-looking LU factorization, from
// the authors' companion papers ([5, 6] of the IPPS 2000 paper).
//
// At step k the remaining work is proportional to the number of *trailing*
// columns each processor owns, so the total time is
//
//	T(σ) = Σ_k max_p t_p · |{ j > k : σ(j) = p }|.
//
// The trailing count at step k is the allocation of the last nb−k−1
// columns, so T(σ) is the sum over suffix lengths of the suffix makespans.
// Assigning columns right-to-left with the incremental greedy gives an
// allocation whose *every* suffix is an optimal instance of the static
// problem (the greedy's standard prefix-optimality), and any σ is bounded
// below by those optima summed — hence the result is exactly optimal, which
// TestLUSequenceOptimal verifies against brute force.
func LUSequence(nb int, times []float64) ([]int, error) {
	seq, err := Sequence(nb, times)
	if err != nil {
		return nil, err
	}
	// Reverse: the greedy's k-th pick becomes the k-th column from the end.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq, nil
}

// LUCost evaluates T(σ) for an assignment of column blocks to processors:
// the sum over steps of the trailing-column makespan.
func LUCost(assignment []int, times []float64) (float64, error) {
	if err := validateTimes(times); err != nil {
		return 0, err
	}
	counts := make([]int, len(times))
	for k, p := range assignment {
		if p < 0 || p >= len(times) {
			return 0, fmt.Errorf("onedim: assignment[%d] = %d outside %d processors", k, p, len(times))
		}
		counts[p]++
	}
	total := 0.0
	for k := 0; k < len(assignment); k++ {
		// Work at step k covers columns k+1..nb-1.
		counts[assignment[k]]--
		total += makespan(counts, times)
	}
	return total, nil
}

// BruteForceLUSequence searches every assignment (exponential; tiny nb
// only) and returns one minimizing LUCost — the test oracle for LUSequence.
func BruteForceLUSequence(nb int, times []float64) ([]int, float64, error) {
	if err := validateTimes(times); err != nil {
		return nil, 0, err
	}
	if nb < 0 {
		return nil, 0, fmt.Errorf("onedim: negative block count %d", nb)
	}
	n := len(times)
	best := make([]int, nb)
	bestCost := math.Inf(1)
	cur := make([]int, nb)
	var rec func(k int)
	rec = func(k int) {
		if k == nb {
			cost, err := LUCost(cur, times)
			if err == nil && cost < bestCost {
				bestCost = cost
				copy(best, cur)
			}
			return
		}
		for p := 0; p < n; p++ {
			cur[k] = p
			rec(k + 1)
		}
	}
	rec(0)
	return best, bestCost, nil
}
