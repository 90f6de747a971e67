// Package spantree enumerates spanning trees of small connected graphs.
//
// The exact solver of Beaumont et al. (§4.3.1) walks every spanning tree of
// the complete bipartite graph K_{p,q} whose vertices are the row variables
// r_1..r_p and column variables c_1..c_q: each tree fixes a candidate
// solution by turning the tree's inequalities r_i·t_ij·c_j ≤ 1 into
// equalities. K_{p,q} has p^{q-1}·q^{p-1} spanning trees, so enumeration is
// exponential — exactly as the paper states — but constructive and feasible
// for the small grids the exact method targets.
//
// The enumerator uses include/exclude backtracking over the edge list with a
// union-find for cycle detection and a connectivity-based pruning bound, so
// every spanning tree is produced exactly once and dead branches are cut
// early. Two extensions support the parallel branch-and-bound exact solver:
//
//   - Hooks let a caller maintain incremental state (e.g. propagated
//     variable values) as edges join the partial forest, and veto an
//     inclusion to prune every spanning tree extending it.
//   - A prefix of forced include/exclude decisions over the first edges
//     partitions the enumeration space into disjoint classes, so workers can
//     split the trees of a single graph without coordination.
package spantree

import "fmt"

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// Graph is an undirected graph on vertices 0..N-1 with an explicit edge
// list. Parallel edges are permitted and are treated as distinct.
type Graph struct {
	N     int
	Edges []Edge
}

// newGraph returns an empty graph on n vertices.
func newGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("spantree: negative vertex count %d", n))
	}
	return &Graph{N: n}
}

// addEdge appends an undirected edge {u, v} and returns its index.
func (g *Graph) addEdge(u, v int) int {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("spantree: edge (%d,%d) out of range for %d vertices", u, v, g.N))
	}
	if u == v {
		panic(fmt.Sprintf("spantree: self-loop at %d", u))
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v})
	return len(g.Edges) - 1
}

// CompleteBipartite returns K_{p,q}: vertices 0..p-1 are the "row" side,
// p..p+q-1 the "column" side, with edges added in row-major order so that
// the edge index of (i, j) is i*q + j.
func CompleteBipartite(p, q int) *Graph {
	g := newGraph(p + q)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			g.addEdge(i, p+j)
		}
	}
	return g
}

// unionFind is a standard disjoint-set with path halving and union by size,
// plus an undo log so the backtracking enumerator can roll back unions.
type unionFind struct {
	parent []int
	size   []int
	comps  int
	log    []ufOp
}

type ufOp struct {
	child, parent int // child was attached to parent
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n), comps: n}
	uf.reset()
	return uf
}

// reset restores the all-singletons state without reallocating.
func (uf *unionFind) reset() {
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	uf.comps = len(uf.parent)
	uf.log = uf.log[:0]
}

// find returns the representative without path compression (compression
// would complicate undo; the graphs here are tiny).
func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b. It reports whether a merge happened and
// records it for undo.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.comps--
	uf.log = append(uf.log, ufOp{child: rb, parent: ra})
	return true
}

// undo rolls back the most recent union.
func (uf *unionFind) undo() {
	op := uf.log[len(uf.log)-1]
	uf.log = uf.log[:len(uf.log)-1]
	uf.parent[op.child] = op.child
	uf.size[op.parent] -= uf.size[op.child]
	uf.comps++
}

// Hooks lets a caller track incremental state during enumeration and prune
// branches. Both fields may be nil.
type Hooks struct {
	// Include is called whenever edge ei is about to join two components of
	// the partial forest (never for cycle-closing edges). Returning false
	// vetoes the inclusion: the enumerator skips every spanning tree that
	// contains the current partial selection plus ei, does not call Undo for
	// the vetoed edge, and continues with the exclude branch.
	Include func(ei int) bool
	// Undo reverses the most recent accepted Include; calls are strictly
	// LIFO-nested.
	Undo func(ei int)
}

// Enumerator runs repeated spanning-tree enumerations over one graph with
// reusable internal buffers (union-find, probe union-find for the
// connectivity bound, edge stack), so per-call allocation stays O(1). It is
// not safe for concurrent use; give each worker its own Enumerator.
type Enumerator struct {
	g      *Graph
	uf     *unionFind
	probe  *unionFind
	chosen []int
}

// NewEnumerator returns an Enumerator over g. The graph must not be mutated
// while the enumerator is in use.
func NewEnumerator(g *Graph) *Enumerator {
	return &Enumerator{
		g:      g,
		uf:     newUnionFind(g.N),
		probe:  newUnionFind(g.N),
		chosen: make([]int, 0, maxInt(g.N-1, 0)),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Enumerate calls visit once for every spanning tree of the graph that
// matches the prefix: for i < len(prefix), edge i is part of the tree iff
// prefix[i] is true. A nil or empty prefix enumerates every spanning tree.
// The edge-index slice passed to visit is sorted ascending and reused
// between calls; visit must copy it to retain it. If visit returns false the
// enumeration stops early. Returns the number of trees visited.
//
// Trees are produced in lexicographic order of their sorted edge-index
// sequences. Distinct prefixes of equal length describe disjoint tree sets
// whose union (over all 2^len bit patterns) is the full enumeration, which
// is what lets callers partition the search across workers.
//
// A graph with fewer than 2 vertices has exactly one (empty) spanning tree.
// A disconnected graph has none.
func (en *Enumerator) Enumerate(prefix []bool, h *Hooks, visit func(edges []int) bool) int {
	g := en.g
	if len(prefix) > len(g.Edges) {
		panic(fmt.Sprintf("spantree: prefix of %d decisions for %d edges", len(prefix), len(g.Edges)))
	}
	if g.N <= 1 {
		// The empty tree matches only the all-exclude prefix.
		for _, inc := range prefix {
			if inc {
				return 0
			}
		}
		if visit == nil || visit(nil) {
			return 1
		}
		return 0
	}
	need := g.N - 1
	if len(g.Edges) < need {
		return 0
	}
	en.uf.reset()
	en.chosen = en.chosen[:0]
	count := 0
	stopped := false

	// remaining connectivity check: can the edges from index idx onward,
	// together with the current partial forest, still connect the graph?
	canConnect := func(idx int) bool {
		probe := en.probe
		probe.reset()
		for _, e := range en.chosen {
			probe.union(g.Edges[e].U, g.Edges[e].V)
		}
		for i := idx; i < len(g.Edges) && probe.comps > 1; i++ {
			probe.union(g.Edges[i].U, g.Edges[i].V)
		}
		return probe.comps == 1
	}

	var rec func(idx int)
	rec = func(idx int) {
		if stopped {
			return
		}
		if len(en.chosen) == need {
			count++
			if visit != nil && !visit(en.chosen) {
				stopped = true
			}
			return
		}
		// Not enough edges left to finish the tree.
		if len(g.Edges)-idx < need-len(en.chosen) {
			return
		}
		e := g.Edges[idx]
		forced := idx < len(prefix)
		// Branch 1: include edge idx if it joins two components and the
		// caller's hook accepts it.
		if !forced || prefix[idx] {
			if en.uf.union(e.U, e.V) {
				if h == nil || h.Include == nil || h.Include(idx) {
					en.chosen = append(en.chosen, idx)
					rec(idx + 1)
					en.chosen = en.chosen[:len(en.chosen)-1]
					if h != nil && h.Undo != nil {
						h.Undo(idx)
					}
				}
				en.uf.undo()
			}
		}
		// Branch 2: exclude edge idx, but only if connectivity remains
		// achievable without it.
		if (!forced || !prefix[idx]) && canConnect(idx+1) {
			rec(idx + 1)
		}
	}
	rec(0)
	return count
}

// Enumerate calls visit once for every spanning tree of g. See
// Enumerator.Enumerate for the callback contract. Callers running many
// enumerations over the same graph should construct an Enumerator once and
// reuse it to avoid per-call allocation.
func Enumerate(g *Graph, visit func(edges []int) bool) int {
	return NewEnumerator(g).Enumerate(nil, nil, visit)
}

// PartitionPrefixes returns the 2^bits include/exclude prefixes over the
// first bits edges of a graph with nEdges edges. Every spanning tree matches
// exactly one returned prefix, so enumerating each prefix independently
// (possibly on different workers) covers the full tree set exactly once.
// bits is clamped to [0, min(nEdges, 16)].
func PartitionPrefixes(nEdges, bits int) [][]bool {
	if bits > nEdges {
		bits = nEdges
	}
	if bits > 16 {
		bits = 16
	}
	if bits < 0 {
		bits = 0
	}
	prefixes := make([][]bool, 1<<bits)
	for mask := range prefixes {
		pre := make([]bool, bits)
		for b := 0; b < bits; b++ {
			pre[b] = mask&(1<<b) != 0
		}
		prefixes[mask] = pre
	}
	return prefixes
}

// Count returns the number of spanning trees of g, computed by enumeration.
// For K_{p,q} the closed form p^{q-1}·q^{p-1} is available via
// CountCompleteBipartite and is used by tests to cross-check this function.
func Count(g *Graph) int {
	return Enumerate(g, nil)
}

// CountCompleteBipartite returns the number of spanning trees of K_{p,q},
// p^{q-1} * q^{p-1} (Scoins' formula). Panics on overflow-scale inputs
// (result must fit an int).
func CountCompleteBipartite(p, q int) int {
	if p <= 0 || q <= 0 {
		return 0
	}
	result := 1
	for i := 0; i < q-1; i++ {
		result = mulCheck(result, p)
	}
	for i := 0; i < p-1; i++ {
		result = mulCheck(result, q)
	}
	return result
}

func mulCheck(a, b int) int {
	c := a * b
	if a != 0 && c/a != b {
		panic("spantree: spanning tree count overflows int")
	}
	return c
}
