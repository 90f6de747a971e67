package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hetgrid/internal/grid"
)

// ErrNoAcceptableTree would indicate no spanning tree of K_{p,q} yields a
// feasible solution. It cannot actually occur for positive cycle-times: the
// walk on every arrangement starts from a tree that is acceptable by
// construction.
var ErrNoAcceptableTree = errors.New("core: no acceptable spanning tree found")

// ExactStats reports the work done by an exact solver. Every counter is
// deterministic for a given input: none depends on the worker count or on
// scheduling.
type ExactStats struct {
	// TreesVisited is the number of acceptable spanning trees the walk
	// reached: C(p+q−2, p−1) per arrangement searched, degenerate or not
	// (one tree per vertex of the perturbed feasible polyhedron), and far
	// below TreesTheoretical.
	TreesVisited int
	// Arrangements is the number of non-decreasing arrangements searched
	// (1 for the fixed-arrangement solver).
	Arrangements int
	// TreesTheoretical is the full spanning-tree count p^(q-1)·q^(p-1)
	// summed over every arrangement examined — the work a search over every
	// tree would do.
	TreesTheoretical int
}

// PruneRatio returns the fraction of the theoretical tree search avoided:
// 1 − TreesVisited/TreesTheoretical (0 when nothing is known).
func (s *ExactStats) PruneRatio() float64 {
	if s.TreesTheoretical == 0 {
		return 0
	}
	return 1 - float64(s.TreesVisited)/float64(s.TreesTheoretical)
}

// Add accumulates o into s.
func (s *ExactStats) Add(o *ExactStats) {
	s.TreesVisited += o.TreesVisited
	s.Arrangements += o.Arrangements
	s.TreesTheoretical += o.TreesTheoretical
}

// ExactOptions tunes the exact solvers. The zero value searches on
// GOMAXPROCS workers.
type ExactOptions struct {
	// Workers is the number of goroutines that search spanning trees;
	// 0 selects runtime.GOMAXPROCS(0). The result is bit-identical for every
	// worker count, 1 included.
	Workers int
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

// treeSearcher is the reusable per-worker state of the walk over the
// acceptable spanning trees of one p×q grid shape: the trees tried so far,
// the queue of acceptable ones, the tree at hand and the running best
// candidate. Vertices 0..p-1 are rows, p..p+q-1 are columns, and edge e of
// K_{p,q} joins row e/q to column e%q (row-major order).
//
// The acceptable trees are the bases of the vertices of the feasible
// polyhedron r_i·t_ij·c_j ≤ 1, and the walk moves between them by simplex
// pivots, so it never builds an unacceptable tree to throw away. A
// degenerate vertex has many acceptable trees; the walk keeps only those
// that stay vertices when edge e's bound is relaxed by ε^(e+1) (lower
// indices dominate). That perturbed polyhedron is simple, its vertex graph
// is connected, and every vertex of the real one is the limit of one of
// its vertices, so the walk reaches every vertex through exactly
// C(p+q−2, p−1) trees per arrangement, degenerate or not.
type treeSearcher struct {
	p, q int
	tol  float64

	arr    *grid.Arrangement
	arrSeq int

	// The visited set: every edge set tried in any arrangement, keyed by
	// its bitmask, indexes tried, which holds the arrangement (stamp) that
	// last tried it. The trees of K_{p,q} recur from one arrangement to the
	// next, so a key is allocated once per searcher, not once per try.
	seen  map[string]int
	tried []int
	stamp int
	key   []byte // the bitmask of the tree being tried
	queue []int  // acceptable trees, p+q−1 sorted edges each
	// The exchanges (leaving, entering) out of each queued tree, found
	// while it is loaded: the k-th tree's are pivots[ends[k-1]:ends[k]].
	pivots [][2]int
	ends   []int
	next   []int  // the exchange being tried
	below  []bool // the subtree under the edge being released

	// The loaded tree, rooted at row 0, in breadth-first order: each
	// vertex's share (rows, then columns), the edge to its parent, its
	// parent and its depth; and each edge's product r_i·t_ij·c_j.
	order          []int
	adj            [][]int
	val, prod      []float64
	up, par, depth []int

	// Each edge's row vertex and column vertex, e/q and p+e%q.
	rowOf, colOf []int

	stats ExactStats
	best  exactCandidate
}

func newTreeSearcher(p, q int) *treeSearcher {
	n := p + q
	s := &treeSearcher{
		p:     p,
		q:     q,
		tol:   FeasibilityTol,
		seen:  make(map[string]int),
		key:   make([]byte, (p*q+7)/8),
		next:  make([]int, 0, n),
		below: make([]bool, n),
		order: make([]int, 0, n),
		adj:   make([][]int, n),
		val:   make([]float64, n),
		prod:  make([]float64, p*q),
		up:    make([]int, n),
		par:   make([]int, n),
		depth: make([]int, n),
	}
	deg := max(p, q)
	adj := make([]int, n*deg)
	for v := range s.adj {
		s.adj[v] = adj[v*deg : v*deg : (v+1)*deg]
	}
	s.rowOf, s.colOf = make([]int, p*q), make([]int, p*q)
	for e := range s.rowOf {
		s.rowOf[e], s.colOf[e] = e/q, p+e%q
	}
	s.best.r = make([]float64, p)
	s.best.c = make([]float64, q)
	return s
}

// searchArrangement walks the acceptable trees of arr, updating stats and
// the running best candidate. The start tree holds every edge of row 0 and,
// for each other row i, the edge to the column j that minimises t_0j/t_ij
// (the smallest such j on ties within tol): every product it leaves out is
// at most 1, and a tied one is acceptable because its path's lowest edge
// is row 0's edge to the smaller column, the path's second. The walk then
// expands the queue in order until no unseen acceptable tree remains.
func (s *treeSearcher) searchArrangement(arr *grid.Arrangement, arrSeq int) {
	s.arr, s.arrSeq = arr, arrSeq
	s.stamp++
	s.queue, s.pivots, s.ends = s.queue[:0], s.pivots[:0], s.ends[:0]
	t := arr.T
	start := s.next[:0]
	for j := 0; j < s.q; j++ {
		start = append(start, j)
	}
	for i := 1; i < s.p; i++ {
		jb := 0
		for j := 1; j < s.q; j++ {
			if t[0][j]/t[i][j]*(1+s.tol) < t[0][jb]/t[i][jb] {
				jb = j
			}
		}
		start = append(start, i*s.q+jb)
	}
	s.markSeen(start)
	s.load(start)
	s.visit(start)
	lo := 0
	for k, at := 0, 0; at < len(s.queue); k, at = k+1, at+s.p+s.q-1 {
		hi := s.ends[k]
		s.expand(s.queue[at:at+s.p+s.q-1], s.pivots[lo:hi])
		lo = hi
	}
}

// markSeen records tree in the current arrangement's visited set and
// reports whether it was new there. The key is the edge set's bitmask,
// whatever p·q.
func (s *treeSearcher) markSeen(tree []int) bool {
	clear(s.key)
	for _, e := range tree {
		s.key[e/8] |= 1 << (e % 8)
	}
	if k, ok := s.seen[string(s.key)]; ok {
		if s.tried[k] == s.stamp {
			return false
		}
		s.tried[k] = s.stamp
		return true
	}
	s.seen[string(s.key)] = len(s.tried)
	s.tried = append(s.tried, s.stamp)
	return true
}

// addPivots queues the exchanges out of the loaded acceptable tree T.
// Releasing a tree edge e splits T into side A, which holds e's row, and
// side B, which holds e's column; sliding A's gauge loosens e and tightens
// exactly the cross edges from a row of B to a column of A, and the one
// with the largest product tightens first. T − e + f is tried for that
// edge f and for every cross edge tied with it within tol; no other
// exchange can be acceptable. An edge with no cross edge is a ray.
func (s *treeSearcher) addPivots(tree []int) {
	p, q := s.p, s.q
	pivots := s.pivots
	for _, e := range tree {
		row, col := s.rowOf[e], s.colOf[e]
		child := row // e's lower end
		if s.depth[col] > s.depth[row] {
			child = col
		}
		for _, v := range s.order {
			s.below[v] = v == child || v != 0 && s.below[s.par[v]]
		}
		aBelow := child == row // side A is the subtree under e
		top, from := 0.0, len(pivots)
		for i := 0; i < p; i++ {
			for j := 0; j < q && s.below[i] != aBelow; j++ {
				if f := i*q + j; s.below[p+j] == aBelow && s.prod[f]*(1+s.tol) >= top {
					top = max(top, s.prod[f])
					pivots = append(pivots, [2]int{e, f})
				}
			}
		}
		kept := slices.DeleteFunc(pivots[from:], func(sw [2]int) bool { return s.prod[sw[1]]*(1+s.tol) < top })
		pivots = pivots[:from+len(kept)]
	}
	s.pivots = pivots
	s.ends = append(s.ends, len(pivots))
}

// expand tries the exchanges addPivots found for the acceptable tree T
// and visits every new tree they reach that is acceptable. T and pivots
// stay valid while the queue grows: both are only appended to.
func (s *treeSearcher) expand(tree []int, pivots [][2]int) {
	for _, sw := range pivots {
		next := slices.DeleteFunc(append(s.next[:0], tree...), func(g int) bool { return g == sw[0] })
		pos, _ := slices.BinarySearch(next, sw[1])
		s.next = slices.Insert(next, pos, sw[1])
		if s.markSeen(s.next) {
			if s.load(s.next); s.acceptable() {
				s.visit(s.next)
			}
		}
	}
}

// load roots tree at row 0 and derives everything from its edge set alone:
// r_0 = 1, and every other vertex follows from its one tree parent,
// c_j = 1/(r_i·t_ij) or r_i = 1/(t_ij·c_j).
func (s *treeSearcher) load(tree []int) {
	p, q, t := s.p, s.q, s.arr.T
	for v := range s.adj {
		s.adj[v] = s.adj[v][:0]
	}
	for _, e := range tree {
		s.adj[s.rowOf[e]] = append(s.adj[s.rowOf[e]], e)
		s.adj[s.colOf[e]] = append(s.adj[s.colOf[e]], e)
	}
	s.val[0], s.up[0], s.depth[0] = 1, -1, 0
	s.order = append(s.order[:0], 0)
	for k := 0; k < len(s.order); k++ {
		v := s.order[k]
		for _, e := range s.adj[v] {
			if e == s.up[v] {
				continue
			}
			i, c := s.rowOf[e], s.colOf[e]
			w := i
			if v < p {
				w = c
				s.val[w] = 1 / (s.val[i] * t[i][c-p])
			} else {
				s.val[w] = 1 / (t[i][c-p] * s.val[c])
			}
			s.up[w], s.par[w], s.depth[w] = e, v, s.depth[v]+1
			s.order = append(s.order, w)
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			s.prod[i*q+j] = s.val[i] * t[i][j] * s.val[p+j]
		}
	}
}

// acceptable reports whether the loaded tree is a vertex of the perturbed
// polyhedron: no product exceeds 1 beyond tol, and every product within tol
// of 1 is decided by the perturbation. A tree edge is tight and is its own
// path, so it holds.
func (s *treeSearcher) acceptable() bool {
	for f, pr := range s.prod {
		if pr > 1+s.tol || pr >= 1-s.tol && !s.perturbedSlack(f) {
			return false
		}
	}
	return true
}

// perturbedSlack decides a non-tree edge f = (i, j) whose product is 1
// within tol. Let g_1…g_m be the tree path from row i to column j, g_1 at
// row i. Under the perturbation f's slack is
// ε^(f+1) − Σ_{k odd} ε^(g_k+1) + Σ_{k even} ε^(g_k+1), so f holds exactly
// when the lowest index among f, g_1…g_m is f's or an even g_k's. The path
// is climbed from both ends, the deeper end first: from row i's end g_k is
// even when its lower end is a column, from column j's when it is a row.
func (s *treeSearcher) perturbedSlack(f int) bool {
	low, holds := f, true
	a, b, fromRow := s.rowOf[f], s.colOf[f], true
	for a != b {
		if s.depth[a] < s.depth[b] {
			a, b, fromRow = b, a, !fromRow
		}
		if s.up[a] < low {
			low, holds = s.up[a], (a >= s.p) == fromRow
		}
		a = s.par[a]
	}
	return holds
}

// visit counts the loaded acceptable tree, queues it with its exchanges
// for expansion and scores it; the shares are already in the solver's
// gauge r_1 = 1.
func (s *treeSearcher) visit(tree []int) {
	s.stats.TreesVisited++
	s.queue = append(s.queue, tree...)
	s.addPivots(tree)
	sr, sc := 0.0, 0.0
	for _, v := range s.val[:s.p] {
		sr += v
	}
	for _, v := range s.val[s.p:] {
		sc += v
	}
	obj := sr * sc
	cand := exactCandidate{obj: obj, arrSeq: s.arrSeq, edges: tree}
	if cand.betterThan(&s.best) {
		s.best.obj = obj
		s.best.arrSeq = s.arrSeq
		s.best.arr = s.arr
		s.best.edges = append(s.best.edges[:0], tree...)
		copy(s.best.r, s.val[:s.p])
		copy(s.best.c, s.val[s.p:])
	}
}

// SolveArrangementExactOpt solves Obj2 exactly for a fixed arrangement
// using the spanning-tree characterization of §4.3.1: at an optimum at least
// p+q−1 of the p·q constraints are tight, and the tight set contains a
// spanning tree of the complete bipartite graph on {r_i} ∪ {c_j}. Of the
// p^(q−1)·q^(p−1) spanning trees the solver visits only acceptable ones,
// those whose equalities r_i·t_ij·c_j = 1 leave every inequality holding,
// walking from one to the next by simplex pivots (treeSearcher), and returns
// the best under a deterministic tie-break. Workers split the search by
// arrangement, so the one arrangement here runs on one worker whatever
// opts.Workers says; the solution is bit-identical either way.
//
// Cost grows with the C(p+q−2, p−1) trees visited; it is intended for the small grids
// where the exact answer is wanted (the paper conjectures the general
// problem NP-complete). A grid whose tree count overflows int is an error.
func SolveArrangementExactOpt(arr *grid.Arrangement, opts ExactOptions) (*Solution, *ExactStats, error) {
	trees, err := spanningTrees(arr.P, arr.Q)
	if err != nil {
		return nil, nil, err
	}
	opts.Workers = 1 // one arrangement is one work item
	return search(arr.P, arr.Q, trees, opts, func(emit func(*grid.Arrangement) bool) error {
		emit(arr)
		return nil
	})
}

// SolveGlobalExact solves the full 2D load-balancing problem: it searches
// every non-decreasing arrangement of the cycle-times on a p×q grid
// (sufficient by Theorem 1) and solves each exactly with the spanning-tree
// method, returning the best solution found. Every arrangement is walked
// whole: the search uses no bound and no other solver, so it can grade the
// heuristic it does not call. Exponential in the grid size; intended for
// small problems and for validating the heuristic. It runs on one worker;
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
	return search(p, q, trees, opts, func(emit func(*grid.Arrangement) bool) error {
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
