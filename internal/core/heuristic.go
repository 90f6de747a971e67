package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"hetgrid/internal/grid"
)

// DefaultMaxIterations bounds the iterative refinement of the heuristic.
// The paper observes the iteration count grows with n but remains small in
// practice; the bound exists to guarantee termination if the re-sorting
// ever cycles.
const DefaultMaxIterations = 200

// HeuristicOptions tunes SolveHeuristic. The zero value selects defaults.
type HeuristicOptions struct {
	// MaxIterations caps refinement steps (0 selects
	// DefaultMaxIterations). Each step costs one dominant-SVD computation.
	MaxIterations int
	// NoRefine stops after the first rank-1 approximation step,
	// reproducing the "after the first step" baseline of Figure 7.
	NoRefine bool
}

// HeuristicResult carries the heuristic's solution plus the convergence
// bookkeeping that the paper's Figures 6–8 are built from.
type HeuristicResult struct {
	*Solution
	// FirstObjective is (Σr)(Σc) after the first step (row-major sorted
	// arrangement), the denominator of the Figure 7 ratio τ.
	FirstObjective float64
	// Objectives records the objective after every step, starting with the
	// first; the last entry equals Solution.Objective().
	Objectives []float64
	// Iterations is the number of evaluation steps performed (Figure 8
	// plots its average). The paper's 3×3 worked example takes 3.
	Iterations int
	// Converged is true when the process stopped because re-sorting left
	// the arrangement unchanged (a fixed point); false when it hit
	// MaxIterations or detected a cycle of arrangements.
	Converged bool
	// Tau is Objective/FirstObjective − 1, the refinement gain of Figure 7.
	Tau float64
	// FinalArrangement is the last arrangement evaluated. When Converged
	// is true it is a fixed point of the refinement; it may differ from
	// Solution.Arr, which belongs to the best objective seen (the
	// refinement is not strictly monotone).
	FinalArrangement *grid.Arrangement
}

// SolveHeuristic runs the polynomial heuristic of §4.4 on the given
// cycle-times: arrange row-major sorted, approximate T^inv by its best
// rank-1 matrix via the dominant singular triple, scale into feasibility,
// then iteratively re-sort the cycle-times to match the ordering of the
// induced optimal cycle-times T_opt = (1/(r_i·c_j)) until a fixed point.
func SolveHeuristic(times []float64, p, q int, opts HeuristicOptions) (*HeuristicResult, error) {
	return solveHeuristic(times, p, q, opts, newHeurScratch(p*q))
}

// solveHeuristic is SolveHeuristic on caller-provided scratch, which
// ChooseShape shares across its candidate grids.
func solveHeuristic(times []float64, p, q int, opts HeuristicOptions, sc *heurScratch) (*HeuristicResult, error) {
	arr, err := grid.RowMajor(times, p, q)
	if err != nil {
		return nil, err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	if opts.NoRefine {
		maxIter = 1
	}

	res := &HeuristicResult{}
	seen := append(sc.seen[:0], arr)
	var best *Solution
	bestObj := 0.0
	for iter := 0; iter < maxIter; iter++ {
		sol, err := rankOneStep(arr, sc)
		if err != nil {
			return nil, err
		}
		obj := sol.Objective()
		res.Objectives = append(res.Objectives, obj)
		res.Iterations++
		if iter == 0 {
			res.FirstObjective = obj
		}
		if obj > bestObj {
			bestObj, best = obj, sol
		}
		res.FinalArrangement = arr
		if opts.NoRefine {
			res.Converged = true
			break
		}
		next := rearrange(arr, sol, sc)
		if next.Equal(arr) {
			res.Converged = true
			break
		}
		if slices.ContainsFunc(seen, next.Equal) {
			// The re-sorting revisited an earlier arrangement without
			// reaching a fixed point; stop with the best solution so far.
			break
		}
		seen = append(seen, next)
		arr = next
	}
	sc.seen = seen
	res.Solution = best
	if res.FirstObjective > 0 {
		res.Tau = best.Objective()/res.FirstObjective - 1
	}
	return res, nil
}

// heurScratch holds the buffers SolveHeuristic reuses across refinement
// iterations, and ChooseShape across candidate grids: the row-major p·q
// T^inv matrix handed to dominantTriple, the position slice the re-sorting
// step orders, the sorted cycle-time buffer, and the arrangements visited
// so far, which detect a cycle of the re-sorting. One dominant triple per
// step still dominates the cost; the scratch removes the per-iteration
// allocations around it.
type heurScratch struct {
	tinv      []float64
	positions []heurPos
	times     []float64
	seen      []*grid.Arrangement
}

type heurPos struct {
	val  float64
	i, j int
}

// newHeurScratch returns scratch for grids of up to n processors.
func newHeurScratch(n int) *heurScratch {
	return &heurScratch{
		tinv:      make([]float64, n),
		positions: make([]heurPos, 0, n),
		times:     make([]float64, 0, n),
	}
}

// RankOneStep performs one evaluation step of the heuristic for a fixed
// arrangement (§4.4.2): compute the dominant singular triple (s, a, b) of
// T^inv = (1/t_ij), set r = s·a and c = b, then scale into feasibility —
// divide each c_j by the largest entry of column j of (r_i·t_ij·c_j), then
// each r_i by the largest entry of row i — so that every constraint holds,
// every row has a tight constraint, and (for the resulting matrices in
// practice) every column keeps one too.
func RankOneStep(arr *grid.Arrangement) (*Solution, error) {
	return rankOneStep(arr, newHeurScratch(arr.P*arr.Q))
}

func rankOneStep(arr *grid.Arrangement, sc *heurScratch) (*Solution, error) {
	p, q := arr.P, arr.Q
	tinv := sc.tinv[:p*q]
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			tinv[i*q+j] = 1 / arr.T[i][j]
		}
	}
	// T^inv is entrywise positive, so its dominant singular value is simple
	// and the power iteration converges; if the iteration budget runs out
	// (nearly equal leading values), squaring the Gram matrix separates them.
	s, a, b, err := dominantTriple(tinv, p, q, 1e-14, 2000)
	if err != nil {
		s, a, b = gramSquaringTriple(tinv, p, q)
	}
	// The triple's vectors are fresh: scale u into r in place and keep v
	// as c.
	r, c := a, b
	for i := range r {
		r[i] *= s
	}
	// Perron–Frobenius guarantees positive singular vectors for a positive
	// matrix; guard against numerically-zero components anyway.
	for i, v := range r {
		if !(v > 0) {
			return nil, fmt.Errorf("core: non-positive row share r[%d] = %v from SVD", i, v)
		}
	}
	for j, v := range c {
		if !(v > 0) {
			return nil, fmt.Errorf("core: non-positive column share c[%d] = %v from SVD", j, v)
		}
	}
	// Feasibility scaling, columns first then rows.
	for j := 0; j < q; j++ {
		max := 0.0
		for i := 0; i < p; i++ {
			if v := r[i] * arr.T[i][j] * c[j]; v > max {
				max = v
			}
		}
		c[j] /= max
	}
	for i := 0; i < p; i++ {
		max := 0.0
		for j := 0; j < q; j++ {
			if v := r[i] * arr.T[i][j] * c[j]; v > max {
				max = v
			}
		}
		r[i] /= max
	}
	return &Solution{Arr: arr, R: r, C: c}, nil
}

// errNoConvergence is returned by dominantTriple when its iteration budget
// runs out before the tolerance is met.
var errNoConvergence = errors.New("core: power iteration did not converge")

// dominantTriple computes the largest singular value s of the row-major
// m×n matrix a and its singular vectors u, v by power iteration on AᵀA.
// By Eckart–Young s·u·vᵀ is the best rank-1 approximation of a in the l2
// sense. tol is the relative change in s at which iteration stops;
// maxIter bounds the work. The vectors are sign-normalized (the entry of u
// with the largest magnitude is positive). Returns errNoConvergence if the
// budget is exhausted first (the best estimate so far is still returned).
func dominantTriple(a []float64, m, n int, tol float64, maxIter int) (s float64, u, v []float64, err error) {
	if m == 0 || n == 0 {
		return 0, nil, nil, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	// Deterministic start: the all-ones vector has a nonzero component along
	// the dominant right singular vector for the positive matrices (inverse
	// cycle-times) this is used on.
	v = make([]float64, n)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(n))
	}
	u = make([]float64, m)
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		// u = A v, s = ||u||.
		for i := 0; i < m; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i*n+j] * v[j]
			}
			u[i] = sum
		}
		s = norm2(u)
		if s == 0 {
			return 0, u, v, nil
		}
		scale(u, 1/s)
		// v = Aᵀ u, s = ||v||.
		for j := 0; j < n; j++ {
			sum := 0.0
			for i := 0; i < m; i++ {
				sum += a[i*n+j] * u[i]
			}
			v[j] = sum
		}
		s = norm2(v)
		if s == 0 {
			return 0, u, v, nil
		}
		scale(v, 1/s)
		if math.Abs(s-prev) <= tol*s {
			signNormalize(u, v)
			return s, u, v, nil
		}
		prev = s
	}
	signNormalize(u, v)
	return s, u, v, errNoConvergence
}

// gramSquarings is the number of times gramSquaringTriple squares the Gram
// matrix: the second eigenvalue's share falls as (λ₂/λ₁)^(2^k), which
// underflows for any ratio a float64 can tell from 1.
const gramSquarings = 64

// gramSquaringTriple computes the dominant singular triple of the nonzero
// row-major m×n matrix a where the power iteration's budget runs out. It
// squares the Gram matrix G = AᵀA repeatedly, dividing by the largest entry
// each time, so G converges to a multiple of v·vᵀ; v is G's column with the
// largest diagonal entry (the one farthest from underflow), normalized, and
// u = Av/‖Av‖, s = ‖Av‖. The vectors are sign-normalized like
// dominantTriple's.
func gramSquaringTriple(a []float64, m, n int) (s float64, u, v []float64) {
	g := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < m; k++ {
				sum += a[k*n+i] * a[k*n+j]
			}
			g[i*n+j] = sum
		}
	}
	sq := make([]float64, n*n)
	for range gramSquarings {
		max := 0.0
		for _, x := range g {
			max = math.Max(max, math.Abs(x))
		}
		scale(g, 1/max)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += g[i*n+k] * g[k*n+j]
				}
				sq[i*n+j] = sum
			}
		}
		g, sq = sq, g
	}
	col := 0
	for j := 1; j < n; j++ {
		if g[j*n+j] > g[col*n+col] {
			col = j
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = g[i*n+col]
	}
	scale(v, 1/norm2(v))
	u = make([]float64, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a[i*n+j] * v[j]
		}
		u[i] = sum
	}
	s = norm2(u)
	scale(u, 1/s)
	signNormalize(u, v)
	return s, u, v
}

func norm2(x []float64) float64 {
	n := 0.0
	for _, v := range x {
		n = math.Hypot(n, v)
	}
	return n
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func signNormalize(u, v []float64) {
	maxIdx, maxAbs := 0, 0.0
	for i, x := range u {
		if a := math.Abs(x); a > maxAbs {
			maxAbs, maxIdx = a, i
		}
	}
	if len(u) > 0 && u[maxIdx] < 0 {
		scale(u, -1)
		scale(v, -1)
	}
}

// rearrange produces the refined arrangement of §4.4.3: it computes the
// rank-1 optimal cycle-times T_opt = (1/(r_i·c_j)) for the given solution
// and returns the arrangement that places the k-th smallest actual
// cycle-time at the position of the k-th smallest T_opt entry, so that
// t_ij ≤ t_kl ⟺ t_opt_ij ≤ t_opt_kl. Ties in T_opt are broken by
// column-major position (the convention that reproduces the paper's §4.4.3
// trajectory, whose second step has an exact tie), making the result
// deterministic.
func rearrange(arr *grid.Arrangement, sol *Solution, sc *heurScratch) *grid.Arrangement {
	p, q := arr.P, arr.Q
	positions := sc.positions[:0]
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			positions = append(positions, heurPos{val: 1 / (sol.R[i] * sol.C[j]), i: i, j: j})
		}
	}
	sc.positions = positions
	slices.SortStableFunc(positions, func(a, b heurPos) int { return cmp.Compare(a.val, b.val) })
	// Near-equal T_opt entries (e.g. the exact tie in the paper's §4.4.3
	// second step) are ordered column-major: group runs of values within a
	// relative tolerance and re-sort each run by (j, i).
	const tieTol = 1e-6
	for lo := 0; lo < len(positions); {
		hi := lo + 1
		for hi < len(positions) &&
			positions[hi].val-positions[hi-1].val <= tieTol*math.Max(positions[hi].val, 1) {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(positions[lo:hi], func(a, b heurPos) int {
				return cmp.Or(cmp.Compare(a.j, b.j), cmp.Compare(a.i, b.i))
			})
		}
		lo = hi
	}
	times := sc.times[:0]
	for _, row := range arr.T {
		times = append(times, row...)
	}
	sc.times = times
	slices.Sort(times)
	data := make([]float64, p*q)
	for k, pp := range positions {
		data[pp.i*q+pp.j] = times[k]
	}
	next, err := grid.FromData(data, p, q)
	if err != nil {
		panic(err) // a permutation of arr's cycle-times, which arr validated
	}
	return next
}
