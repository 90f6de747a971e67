package core

import (
	"cmp"
	"fmt"
	"slices"
)

// ShapeResult is the outcome of a grid-shape search: the chosen grid
// dimensions, which processors participate, and the balanced solution.
type ShapeResult struct {
	*Solution
	// P and Q are the chosen grid dimensions.
	P, Q int
	// Selected[i] indexes into the input cycle-times: the processors
	// placed on the grid, fastest first. Processors left out (when
	// p·q < n) are simply unused.
	Selected []int
	// Candidates is the number of (p, q, m) combinations evaluated.
	Candidates int
}

// ShapeOptions tunes ChooseShape.
type ShapeOptions struct {
	// AllowSubset permits using fewer than all processors (p·q < n) when
	// dropping the slowest machines yields more blocks per time unit.
	AllowSubset bool
	// MinAspect constrains the grid: min(p,q)/max(p,q) ≥ MinAspect.
	// 0 allows anything including 1×n; 1 forces square grids. Squarer
	// grids communicate less in the ScaLAPACK kernels (perimeter-to-area),
	// which the pure compute objective does not see.
	MinAspect float64
}

// ChooseShape solves the full problem of §4.1: given n processors, pick
// grid dimensions p×q ≤ n, the participating processors, and the shares.
// Candidate grids take the fastest p·q processors (a slower processor can
// only lower a row's and column's throughput); every factorization of
// every admissible m ≤ n is balanced with the polynomial heuristic and the
// best objective wins. Ties prefer squarer grids, then larger processor
// counts.
func ChooseShape(times []float64, opts ShapeOptions) (*ShapeResult, error) {
	n := len(times)
	if n == 0 {
		return nil, fmt.Errorf("core: no processors")
	}
	// Sort processor indices by speed (fastest first).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })

	sizes := []int{n}
	if opts.AllowSubset {
		sizes = sizes[:0]
		for m := n; m >= 1; m-- {
			sizes = append(sizes, m)
		}
	}
	var best *ShapeResult
	candidates := 0
	better := func(sol *Solution, p, q, m int) bool {
		if best == nil {
			return true
		}
		co, bo := sol.Objective(), best.Objective()
		if co != bo {
			return co > bo
		}
		// Prefer squarer grids.
		ca, ba := aspect(p, q), aspect(best.P, best.Q)
		if ca != ba {
			return ca > ba
		}
		return m > len(best.Selected)
	}
	// Every candidate balances a prefix of the same speed order on the
	// same scratch; SolveHeuristic copies the cycle-times it is given.
	sc := newHeurScratch(n)
	subTimes := make([]float64, n)
	for i, idx := range order {
		subTimes[i] = times[idx]
	}
	for _, m := range sizes {
		for p := 1; p <= m; p++ {
			if m%p != 0 {
				continue
			}
			q := m / p
			if opts.MinAspect > 0 && aspect(p, q) < opts.MinAspect {
				continue
			}
			candidates++
			res, err := solveHeuristic(subTimes[:m], p, q, HeuristicOptions{}, sc)
			if err != nil {
				return nil, err
			}
			if better(res.Solution, p, q, m) {
				best = &ShapeResult{Solution: res.Solution, P: p, Q: q, Selected: order[:m:m]}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no admissible grid shape for %d processors (MinAspect %v)", n, opts.MinAspect)
	}
	best.Candidates = candidates
	return best, nil
}

func aspect(p, q int) float64 {
	if p > q {
		p, q = q, p
	}
	return float64(p) / float64(q)
}
