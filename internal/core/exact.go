package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hetgrid/internal/grid"
)

// ErrNoAcceptableTree would indicate no spanning tree of K_{p,q} yields a
// feasible solution. It cannot actually occur for positive cycle-times (the
// star tree centred on r_1 is always acceptable after scaling); it is
// reported only if numerical breakdown prevents every tree from validating.
var ErrNoAcceptableTree = errors.New("core: no acceptable spanning tree found")

// ExactStats reports the work done by an exact solver. Every counter is
// deterministic for a given input: none depends on the worker count or on
// scheduling.
type ExactStats struct {
	// TreesVisited is the number of complete spanning trees generated. With
	// pruning enabled, enumeration branches whose partial trees already
	// violate a constraint are cut before completion, so this is at most —
	// and usually far below — TreesTheoretical.
	TreesVisited int
	// TreesAcceptable is how many visited trees satisfied all constraints.
	TreesAcceptable int
	// Arrangements is the number of non-decreasing arrangements examined,
	// including arrangements skipped by the upper bound (1 for the
	// fixed-arrangement solver).
	Arrangements int
	// ArrangementsPruned counts arrangements skipped entirely because their
	// rank-1 upper bound could not beat the heuristic-seeded lower bound.
	ArrangementsPruned int
	// BranchesPruned counts enumeration subtrees cut by the incremental
	// feasibility check (each veto skips every spanning tree extending the
	// partial selection).
	BranchesPruned int
	// TreesTheoretical is the full spanning-tree count p^(q-1)·q^(p-1)
	// summed over every arrangement examined — the work an unpruned search
	// would do.
	TreesTheoretical int
}

// PruneRatio returns the fraction of the theoretical tree search avoided by
// pruning: 1 − TreesVisited/TreesTheoretical (0 when nothing is known).
func (s *ExactStats) PruneRatio() float64 {
	if s.TreesTheoretical == 0 {
		return 0
	}
	return 1 - float64(s.TreesVisited)/float64(s.TreesTheoretical)
}

// Add accumulates o into s.
func (s *ExactStats) Add(o *ExactStats) {
	s.TreesVisited += o.TreesVisited
	s.TreesAcceptable += o.TreesAcceptable
	s.Arrangements += o.Arrangements
	s.ArrangementsPruned += o.ArrangementsPruned
	s.BranchesPruned += o.BranchesPruned
	s.TreesTheoretical += o.TreesTheoretical
}

// ExactOptions tunes the exact solvers. The zero value selects the pruned
// search on GOMAXPROCS workers.
type ExactOptions struct {
	// Workers is the number of goroutines that search spanning trees;
	// 0 selects runtime.GOMAXPROCS(0). The result is bit-identical for every
	// worker count, 1 included.
	Workers int
	// NoPrune disables both the incremental feasibility pruning and the
	// upper-bound arrangement skipping, restoring the exhaustive search.
	// Intended for cross-checks and baselines.
	NoPrune bool
}

// exactCandidate is a candidate optimum with the full deterministic
// tie-break key: higher objective wins; on exactly equal objectives the
// lexicographically smaller key wins, where the key is the arrangement's
// position in enumeration order (arrangements stream in lexicographic
// row-major order) followed by the tree's sorted edge-index sequence. Every
// searcher keeps its best under this total order and search picks the best
// of theirs under it again, which is what makes the result bit-identical
// regardless of the worker count and scheduling.
type exactCandidate struct {
	obj    float64
	arrSeq int
	edges  []int
	arr    *grid.Arrangement
	r, c   []float64
}

// betterThan reports whether a beats b under the deterministic total order.
// A nil b never wins.
func (a *exactCandidate) betterThan(b *exactCandidate) bool {
	if b == nil || b.arr == nil {
		return true
	}
	if a.obj != b.obj {
		return a.obj > b.obj
	}
	if a.arrSeq != b.arrSeq {
		return a.arrSeq < b.arrSeq
	}
	for i := range a.edges {
		if i >= len(b.edges) || a.edges[i] != b.edges[i] {
			return i >= len(b.edges) || a.edges[i] < b.edges[i]
		}
	}
	return false
}

// treeSearcher is the reusable per-worker state for the pruned spanning-tree
// search over one p×q grid shape: the partial forest with its incremental
// constraint propagation, the edges chosen so far, and the running best
// candidate. Vertices 0..p-1 are rows, p..p+q-1 are columns, and edge e of
// K_{p,q} joins row e/q to column e%q (row-major order).
//
// Propagation invariant: within each component of the partial forest, every
// vertex holds a value val[v] such that all tree equations r·t·c = 1 between
// members hold. The component's remaining gauge freedom multiplies its row
// values by μ and divides its column values by μ, so any product
// val[i]·t[i][j]·val[p+j] between a row and a column of the SAME component
// is gauge-invariant and can be checked against the feasibility bound the
// moment the two vertices become connected — long before the tree is
// complete. A violated product vetoes the edge inclusion, which prunes every
// spanning tree extending the partial selection.
type treeSearcher struct {
	p, q  int
	tol   float64
	prune bool

	arr    *grid.Arrangement
	arrSeq int
	// skipBelow short-circuits candidate bookkeeping for objectives strictly
	// below a known lower bound on the final optimum (search refreshes it
	// from the shared incumbent). It never affects counters.
	skipBelow float64

	val       []float64
	parent    []int
	members   [][]int
	memberBuf [][]int // backing storage for members, cap p+q each
	undoLog   []mergeRec
	savedVals []float64
	chosen    []int // edges of the partial forest, ascending

	stats ExactStats
	best  exactCandidate
}

type mergeRec struct {
	keep, move int
	keepLen    int
	savedStart int
}

func newTreeSearcher(p, q int, opts ExactOptions) *treeSearcher {
	n := p + q
	s := &treeSearcher{
		p:         p,
		q:         q,
		tol:       FeasibilityTol,
		prune:     !opts.NoPrune,
		val:       make([]float64, n),
		parent:    make([]int, n),
		members:   make([][]int, n),
		memberBuf: make([][]int, n),
		chosen:    make([]int, 0, max(n-1, 0)),
	}
	for i := range s.memberBuf {
		s.memberBuf[i] = make([]int, 1, n)
	}
	s.best.edges = make([]int, 0, max(n-1, 0))
	s.best.r = make([]float64, p)
	s.best.c = make([]float64, q)
	return s
}

// resetArrangement rebinds the propagation state to arr.
func (s *treeSearcher) resetArrangement(arr *grid.Arrangement, arrSeq int) {
	s.arr = arr
	s.arrSeq = arrSeq
	for i := range s.val {
		s.val[i] = 1
		s.parent[i] = i
		s.memberBuf[i] = s.memberBuf[i][:1]
		s.memberBuf[i][0] = i
		s.members[i] = s.memberBuf[i]
	}
	s.undoLog = s.undoLog[:0]
	s.savedVals = s.savedVals[:0]
	s.chosen = s.chosen[:0]
}

func (s *treeSearcher) find(x int) int {
	for s.parent[x] != x {
		x = s.parent[x]
	}
	return x
}

// include merges the components ru ∋ u (a row) and rv ∋ v (a column) along
// the edge u–v, rescaling the smaller component so the new tree equation
// holds, and (when pruning) checks every newly-comparable row/column
// constraint. Returns false to veto the inclusion.
func (s *treeSearcher) include(u, v, ru, rv int) bool {
	keep, move := ru, rv
	if len(s.members[rv]) > len(s.members[ru]) {
		keep, move = rv, ru
	}
	// The edge equation val[u]·t·val[v] = 1 fixes the relative gauge λ of
	// the moving component: its row values scale by one factor and its
	// column values by the inverse, preserving the component's internal
	// equations.
	lam := s.val[u] * s.arr.T[u][v-s.p] * s.val[v]
	var fr, fc float64
	if move == rv { // moving side holds the column endpoint v
		fr, fc = lam, 1/lam
	} else { // moving side holds the row endpoint u
		fr, fc = 1/lam, lam
	}
	if s.prune {
		// Check every row/column pair that this merge makes comparable,
		// using the tentative rescaled values. Any violation here is
		// gauge-invariant and final: no completion of this partial tree can
		// repair it, so the whole enumeration branch is cut.
		bound := 1 + s.tol
		for _, m := range s.members[move] {
			var nv float64
			if m < s.p {
				nv = s.val[m] * fr
			} else {
				nv = s.val[m] * fc
			}
			for _, k := range s.members[keep] {
				if m < s.p && k >= s.p {
					if nv*s.arr.T[m][k-s.p]*s.val[k] > bound {
						s.stats.BranchesPruned++
						return false
					}
				} else if m >= s.p && k < s.p {
					if s.val[k]*s.arr.T[k][m-s.p]*nv > bound {
						s.stats.BranchesPruned++
						return false
					}
				}
			}
		}
	}
	rec := mergeRec{keep: keep, move: move, keepLen: len(s.members[keep]), savedStart: len(s.savedVals)}
	for _, m := range s.members[move] {
		s.savedVals = append(s.savedVals, s.val[m])
		if m < s.p {
			s.val[m] *= fr
		} else {
			s.val[m] *= fc
		}
	}
	s.members[keep] = append(s.members[keep], s.members[move]...)
	s.parent[move] = keep
	s.undoLog = append(s.undoLog, rec)
	return true
}

// undo rolls back the most recent accepted include, restoring the exact
// saved values (no multiply-back, so the state is bitwise identical to the
// pre-merge state and results cannot drift with the enumeration path).
func (s *treeSearcher) undo() {
	rec := s.undoLog[len(s.undoLog)-1]
	s.undoLog = s.undoLog[:len(s.undoLog)-1]
	s.parent[rec.move] = rec.move
	s.members[rec.keep] = s.members[rec.keep][:rec.keepLen]
	for i, m := range s.members[rec.move] {
		s.val[m] = s.savedVals[rec.savedStart+i]
	}
	s.savedVals = s.savedVals[:rec.savedStart]
}

// searchArrangement enumerates every spanning tree of K_{p,q} under arr,
// updating stats and the running best candidate. Propagation state is
// maintained in both modes; NoPrune only moves the feasibility decision
// from include-time to visit-time.
func (s *treeSearcher) searchArrangement(arr *grid.Arrangement, arrSeq int) {
	s.resetArrangement(arr, arrSeq)
	s.walk(0, s.visitTree)
}

// walk decides edge e and then every later edge by include/exclude
// backtracking, calling leaf at every completed spanning tree (s.chosen):
// first every tree holding the forest plus e, then every tree holding the
// forest without e. Trees therefore reach leaf once each, in ascending
// lexicographic order of their edge sequences. An inclusion
// that would close a cycle is never tried, one that include vetoes cuts its
// whole subtree, and the exclude branch is taken only while the later edges
// can still complete a spanning tree.
func (s *treeSearcher) walk(e int, leaf func()) {
	need := s.p + s.q - 1
	if len(s.chosen) == need {
		leaf()
		return
	}
	if s.p*s.q-e < need-len(s.chosen) {
		return // too few edges left to finish a tree
	}
	u, v := e/s.q, s.p+e%s.q
	if ru, rv := s.find(u), s.find(v); ru != rv && s.include(u, v, ru, rv) {
		s.chosen = append(s.chosen, e)
		s.walk(e+1, leaf)
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.undo()
	}
	if s.canSpan(e + 1) {
		s.walk(e+1, leaf)
	}
}

// canSpan reports exactly whether the forest plus the edges from e on can
// still span K_{p,q}. In row-major order those edges always form one
// connected piece: rows e/q..p−1 with every column while e/q < p−1, else
// the star of row p−1 on columns e%q..q−1. So the forest can still span iff
// every component holds a vertex the piece reaches, and a component that
// holds none has its root among the unreached vertices.
func (s *treeSearcher) canSpan(e int) bool {
	if e == s.p*s.q {
		return len(s.members[s.find(0)]) == s.p+s.q
	}
	for v, pv := range s.parent {
		if pv == v && !slices.ContainsFunc(s.members[v], func(m int) bool { return s.reached(m, e) }) {
			return false
		}
	}
	return true
}

// reached reports whether some edge with index ≥ e (e < p·q) meets vertex v.
func (s *treeSearcher) reached(v, e int) bool {
	if v < s.p {
		return v >= e/s.q
	}
	return e/s.q < s.p-1 || v-s.p >= e%s.q
}

// visitTree scores the completed spanning tree s.chosen. With pruning,
// every constraint was already verified incrementally; without, the full
// p×q scan runs here.
func (s *treeSearcher) visitTree() {
	s.stats.TreesVisited++
	p, q := s.p, s.q
	if !s.prune {
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				if s.val[i]*s.arr.T[i][j]*s.val[p+j] > 1+s.tol {
					return // reject tree, keep enumerating
				}
			}
		}
	}
	s.stats.TreesAcceptable++
	// Renormalize to the solver's gauge r_1 = 1 and score.
	lam0 := s.val[0]
	sr, sc := 0.0, 0.0
	for i := 0; i < p; i++ {
		sr += s.val[i] / lam0
	}
	for j := 0; j < q; j++ {
		sc += s.val[p+j] * lam0
	}
	obj := sr * sc
	if obj < s.skipBelow {
		return
	}
	cand := exactCandidate{obj: obj, arrSeq: s.arrSeq, edges: s.chosen}
	if cand.betterThan(&s.best) {
		s.best.obj = obj
		s.best.arrSeq = s.arrSeq
		s.best.arr = s.arr
		s.best.edges = append(s.best.edges[:0], s.chosen...)
		for i := 0; i < p; i++ {
			s.best.r[i] = s.val[i] / lam0
		}
		for j := 0; j < q; j++ {
			s.best.c[j] = s.val[p+j] * lam0
		}
	}
}

// arrangementUpperBound returns a cheap upper bound on the Obj2 optimum of a
// fixed arrangement. Writing m_ij = 1/t_ij and g_ij = √m_ij, every feasible
// solution satisfies r_i·c_j ≤ m_ij, and for any two cells the products
// (r_i c_j)(r_i' c_j') = (r_i c_j')(r_i' c_j) ≤ √(m_ij·m_i'j'·m_ij'·m_i'j),
// so squaring the objective Σ_ij r_i c_j and bounding every term gives
//
//	Obj2 ≤ ‖G·Gᵀ‖_F   with   G = (1/√t_ij).
//
// The bound is exact for rank-1 arrangements (where it equals Σ 1/t_ij, the
// perfect-balance objective) and — unlike Σ 1/t_ij — depends on how the
// cycle-times are grouped into rows, so it discriminates between
// arrangements of the same multiset and lets the global solver skip
// arrangements that cannot beat an incumbent.
func arrangementUpperBound(arr *grid.Arrangement) float64 {
	p, q := arr.P, arr.Q
	g := make([][]float64, p)
	for i := 0; i < p; i++ {
		g[i] = make([]float64, q)
		for j := 0; j < q; j++ {
			g[i][j] = 1 / math.Sqrt(arr.T[i][j])
		}
	}
	sum := 0.0
	for i := 0; i < p; i++ {
		for k := 0; k < p; k++ {
			dot := 0.0
			for j := 0; j < q; j++ {
				dot += g[i][j] * g[k][j]
			}
			sum += dot * dot
		}
	}
	return math.Sqrt(sum)
}

// seedMargin shaves the heuristic objective before it seeds the exact
// search's lower bound, so floating-point slack in the heuristic's
// feasibility scaling can never let the seed exceed the true optimum (which
// would wrongly prune the optimal arrangement).
const seedMargin = 4 * FeasibilityTol

// heuristicSeedBound returns a deterministic lower bound on the global Obj2
// optimum, obtained from the polynomial heuristic (any feasible solution on
// any arrangement bounds the optimum from below; Theorem 1 makes the
// non-decreasing optimum global). Returns -Inf if the heuristic fails.
func heuristicSeedBound(times []float64, p, q int) float64 {
	res, err := SolveHeuristic(times, p, q, HeuristicOptions{})
	if err != nil || res.Solution == nil {
		return math.Inf(-1)
	}
	return res.Objective() * (1 - seedMargin)
}

// SolveArrangementExactOpt solves Obj2 exactly for a fixed arrangement
// using the spanning-tree characterization of §4.3.1: at an optimum at least
// p+q−1 of the p·q constraints are tight, and the tight set contains a
// spanning tree of the complete bipartite graph on {r_i} ∪ {c_j}. The
// solver enumerates the p^(q−1)·q^(p−1) spanning trees, propagating the
// equalities r_i·t_ij·c_j = 1 incrementally as edges join the partial
// forest and cutting every enumeration branch whose already-connected
// row/column pairs violate a constraint, keeps the trees whose inequalities
// all hold, and returns the best under a deterministic tie-break.
// opts.NoPrune restores the exhaustive visit-then-scan search. Workers split
// the search by arrangement, so the one arrangement here runs on one worker
// whatever opts.Workers says; the solution is bit-identical either way.
//
// Cost is exponential in the grid size; it is intended for the small grids
// where the exact answer is wanted (the paper conjectures the general
// problem NP-complete). A grid whose tree count overflows int is an error.
func SolveArrangementExactOpt(arr *grid.Arrangement, opts ExactOptions) (*Solution, *ExactStats, error) {
	trees, err := spanningTrees(arr.P, arr.Q)
	if err != nil {
		return nil, nil, err
	}
	opts.Workers = 1 // one arrangement is one work item
	return search(arr.P, arr.Q, trees, opts, math.Inf(-1), func(emit func(*grid.Arrangement) bool) error {
		emit(arr)
		return nil
	})
}

// SolveGlobalExact solves the full 2D load-balancing problem: it searches
// every non-decreasing arrangement of the cycle-times on a p×q grid
// (sufficient by Theorem 1) and solves each exactly with the spanning-tree
// method, returning the best solution found. The search is branch-and-bound:
// the heuristic's objective seeds a lower bound that skips arrangements
// whose rank-1 upper bound cannot beat it, and infeasible partial trees are
// cut during enumeration. Doubly exponential; intended for small problems
// and for validating the heuristic. It runs on one worker;
// SolveGlobalExactOpt takes the worker count, with bit-identical results.
func SolveGlobalExact(times []float64, p, q int) (*Solution, *ExactStats, error) {
	return SolveGlobalExactOpt(times, p, q, ExactOptions{Workers: 1})
}

// SolveGlobalExactOpt is SolveGlobalExact with explicit options.
func SolveGlobalExactOpt(times []float64, p, q int, opts ExactOptions) (*Solution, *ExactStats, error) {
	if len(times) != p*q {
		return nil, nil, fmt.Errorf("core: %d cycle-times for a %d×%d grid", len(times), p, q)
	}
	trees, err := spanningTrees(p, q)
	if err != nil {
		return nil, nil, err
	}
	seed := math.Inf(-1)
	if !opts.NoPrune {
		seed = heuristicSeedBound(times, p, q)
	}
	return search(p, q, trees, opts, seed, func(emit func(*grid.Arrangement) bool) error {
		_, err := grid.EnumerateNonDecreasing(times, p, q, emit)
		return err
	})
}

// Solve2x2Exact returns the exact solution for a 2×2 arrangement. K_{2,2}
// has exactly four spanning trees (drop one of the four edges), so the
// closed-form solution of the extended paper reduces to comparing the four
// candidates; this helper exists mainly as an independently-coded
// cross-check of the general solver.
func Solve2x2Exact(arr *grid.Arrangement) (*Solution, error) {
	if arr.P != 2 || arr.Q != 2 {
		return nil, fmt.Errorf("core: Solve2x2Exact on %d×%d arrangement", arr.P, arr.Q)
	}
	t := arr.T
	best := (*Solution)(nil)
	bestObj := math.Inf(-1)
	// Dropping edge (di, dj) keeps the other three tight.
	for di := 0; di < 2; di++ {
		for dj := 0; dj < 2; dj++ {
			r := [2]float64{1, 0}
			c := [2]float64{0, 0}
			// Tight edges from row 0 first (row 0 keeps both its edges
			// unless the dropped edge is on row 0).
			oj := 1 - dj
			// The tree consists of the three edges other than (di,dj):
			// (oi,oj), (oi,dj), (di,oj). Propagate from r[0]=1.
			switch {
			case di == 0:
				// Row 0 keeps only edge (0, oj): c[oj] = 1/(r0 t[0][oj]).
				c[oj] = 1 / (r[0] * t[0][oj])
				// Row 1 (=oi) keeps both edges: r1 from (1, oj), then c[dj].
				r[1] = 1 / (t[1][oj] * c[oj])
				c[dj] = 1 / (r[1] * t[1][dj])
			default: // di == 1
				// Row 0 keeps both edges.
				c[0] = 1 / (r[0] * t[0][0])
				c[1] = 1 / (r[0] * t[0][1])
				// Row 1 keeps edge (1, oj).
				r[1] = 1 / (t[1][oj] * c[oj])
			}
			// Acceptability of the dropped edge.
			if r[di]*t[di][dj]*c[dj] > 1+FeasibilityTol {
				continue
			}
			obj := (r[0] + r[1]) * (c[0] + c[1])
			if obj > bestObj {
				bestObj = obj
				best = &Solution{Arr: arr, R: []float64{r[0], r[1]}, C: []float64{c[0], c[1]}}
			}
		}
	}
	if best == nil {
		return nil, ErrNoAcceptableTree
	}
	return best, nil
}
