package spantree

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestCountTriangle(t *testing.T) {
	g := newGraph(3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(0, 2)
	if got := Count(g); got != 3 {
		t.Fatalf("triangle has %d spanning trees, want 3", got)
	}
}

func TestCountPath(t *testing.T) {
	g := newGraph(4)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(2, 3)
	if got := Count(g); got != 1 {
		t.Fatalf("path has %d spanning trees, want 1", got)
	}
}

func TestCountCompleteGraph(t *testing.T) {
	// Cayley: K_n has n^{n-2} spanning trees.
	for n := 2; n <= 6; n++ {
		g := newGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.addEdge(i, j)
			}
		}
		want := 1
		for i := 0; i < n-2; i++ {
			want *= n
		}
		if got := Count(g); got != want {
			t.Fatalf("K_%d: got %d trees, want %d", n, got, want)
		}
	}
}

func TestCountCompleteBipartiteMatchesFormula(t *testing.T) {
	for p := 1; p <= 4; p++ {
		for q := 1; q <= 4; q++ {
			g := CompleteBipartite(p, q)
			want := CountCompleteBipartite(p, q)
			if got := Count(g); got != want {
				t.Fatalf("K_{%d,%d}: enumerated %d, formula %d", p, q, got, want)
			}
		}
	}
}

func TestCountCompleteBipartiteFormula(t *testing.T) {
	cases := []struct{ p, q, want int }{
		{1, 1, 1}, {2, 2, 4}, {2, 3, 12}, {3, 3, 81}, {3, 4, 432}, {4, 4, 4096},
		{0, 3, 0}, {3, 0, 0},
	}
	for _, c := range cases {
		if got := CountCompleteBipartite(c.p, c.q); got != c.want {
			t.Errorf("CountCompleteBipartite(%d,%d) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestDisconnectedGraphNoTrees(t *testing.T) {
	g := newGraph(4)
	g.addEdge(0, 1)
	g.addEdge(2, 3)
	if got := Count(g); got != 0 {
		t.Fatalf("disconnected graph: %d trees, want 0", got)
	}
}

func TestTrivialGraphs(t *testing.T) {
	if got := Count(newGraph(0)); got != 1 {
		t.Fatalf("empty graph: %d, want 1", got)
	}
	if got := Count(newGraph(1)); got != 1 {
		t.Fatalf("single vertex: %d, want 1", got)
	}
	if got := Count(newGraph(2)); got != 0 {
		t.Fatalf("two isolated vertices: %d, want 0", got)
	}
}

func TestEnumerateTreesAreValid(t *testing.T) {
	g := CompleteBipartite(3, 3)
	seen := make(map[string]bool)
	Enumerate(g, func(edges []int) bool {
		if len(edges) != g.N-1 {
			t.Fatalf("tree with %d edges, want %d", len(edges), g.N-1)
		}
		// Must be connected and acyclic: n-1 edges + connected suffices.
		adj := make([][]int, g.N)
		for _, ei := range edges {
			e := g.Edges[ei]
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
		visited := make([]bool, g.N)
		stack := []int{0}
		visited[0] = true
		n := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					n++
					stack = append(stack, w)
				}
			}
		}
		if n != g.N {
			t.Fatalf("tree not connected: %v", edges)
		}
		// No duplicates across the enumeration.
		key := fmt.Sprint(edges)
		if seen[key] {
			t.Fatalf("tree %v enumerated twice", edges)
		}
		seen[key] = true
		// Edges sorted ascending (enumeration order guarantee).
		if !sort.IntsAreSorted(edges) {
			t.Fatalf("edges not sorted: %v", edges)
		}
		return true
	})
	if len(seen) != 81 {
		t.Fatalf("K_{3,3}: saw %d distinct trees, want 81", len(seen))
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := CompleteBipartite(3, 3)
	calls := 0
	got := Enumerate(g, func([]int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 || got != 5 {
		t.Fatalf("early stop: calls=%d returned=%d, want 5/5", calls, got)
	}
}

func TestEnumerateVisitSliceReused(t *testing.T) {
	// Documented behaviour: the callback slice is reused, so retained copies
	// must be explicit. Verify a copy survives while the raw slice mutates.
	g := CompleteBipartite(2, 2)
	var first []int
	var firstCopy []int
	i := 0
	Enumerate(g, func(edges []int) bool {
		if i == 0 {
			first = edges
			firstCopy = append([]int(nil), edges...)
		}
		i++
		return true
	})
	if i != 4 {
		t.Fatalf("K_{2,2} has %d trees, want 4", i)
	}
	same := len(first) == len(firstCopy)
	if same {
		for k := range first {
			if first[k] != firstCopy[k] {
				same = false
				break
			}
		}
	}
	_ = same // The raw slice may or may not differ; the copy is the contract.
	if len(firstCopy) != 3 {
		t.Fatalf("spanning tree of K_{2,2} has %d edges, want 3", len(firstCopy))
	}
}

func TestParallelEdgesDistinct(t *testing.T) {
	g := newGraph(2)
	g.addEdge(0, 1)
	g.addEdge(0, 1)
	if got := Count(g); got != 2 {
		t.Fatalf("two parallel edges: %d trees, want 2", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-loop")
		}
	}()
	newGraph(2).addEdge(1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newGraph(2).addEdge(0, 2)
}

func TestCompleteBipartiteEdgeIndexing(t *testing.T) {
	p, q := 3, 4
	g := CompleteBipartite(p, q)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			e := g.Edges[i*q+j]
			if e.U != i || e.V != p+j {
				t.Fatalf("edge %d = %+v, want {%d,%d}", i*q+j, e, i, p+j)
			}
		}
	}
}

func TestKirchhoffCrossCheckRandomGraphs(t *testing.T) {
	// Cross-check enumeration against the Matrix-Tree theorem via integer
	// determinant of the reduced Laplacian (computed with fraction-free
	// Gaussian elimination, Bareiss).
	f := func(seed int64) bool {
		n := 3 + int(uint(seed)%4)
		g := newGraph(n)
		// Ring to guarantee connectivity plus pseudo-random chords.
		for i := 0; i < n; i++ {
			g.addEdge(i, (i+1)%n)
		}
		s := uint(seed)
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if (i+1)%n == j || (j+1)%n == i {
					continue
				}
				s = s*1103515245 + 12345
				if s%3 == 0 {
					g.addEdge(i, j)
				}
			}
		}
		return Count(g) == kirchhoff(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// kirchhoff computes the spanning tree count as det of the reduced
// Laplacian, using Bareiss fraction-free elimination over int64.
func kirchhoff(g *Graph) int {
	n := g.N - 1
	l := make([][]int64, n)
	for i := range l {
		l[i] = make([]int64, n)
	}
	deg := make([]int64, g.N)
	adj := make(map[[2]int]int64)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
		key := [2]int{e.U, e.V}
		if e.U > e.V {
			key = [2]int{e.V, e.U}
		}
		adj[key]++
	}
	for i := 0; i < n; i++ {
		l[i][i] = deg[i]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			key := [2]int{i, j}
			if i > j {
				key = [2]int{j, i}
			}
			l[i][j] = -adj[key]
		}
	}
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if l[k][k] == 0 {
			// Pivot: find a row below with nonzero entry; determinant sign
			// flips, but tree counts are positive so a zero pivot with no
			// replacement means det 0.
			swapped := false
			for r := k + 1; r < n; r++ {
				if l[r][k] != 0 {
					l[k], l[r] = l[r], l[k]
					for c := range l[k] {
						l[k][c] = -l[k][c]
					}
					swapped = true
					break
				}
			}
			if !swapped {
				return 0
			}
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				l[i][j] = (l[i][j]*l[k][k] - l[i][k]*l[k][j]) / prev
			}
			l[i][k] = 0
		}
		prev = l[k][k]
	}
	return int(l[n-1][n-1])
}

func TestPartitionPrefixesCoverEnumeration(t *testing.T) {
	// The union of the per-prefix enumerations must equal the full
	// enumeration exactly — same trees, each exactly once — for every
	// partition width. This is the disjoint-cover property the parallel
	// exact solver relies on.
	g := CompleteBipartite(3, 3)
	full := make(map[string]bool)
	Enumerate(g, func(edges []int) bool {
		full[fmt.Sprint(edges)] = true
		return true
	})
	for bits := 0; bits <= 5; bits++ {
		seen := make(map[string]bool)
		total := 0
		for _, prefix := range PartitionPrefixes(len(g.Edges), bits) {
			total += NewEnumerator(g).Enumerate(prefix, nil, func(edges []int) bool {
				key := fmt.Sprint(edges)
				if seen[key] {
					t.Fatalf("bits=%d: tree %v in two partition classes", bits, edges)
				}
				seen[key] = true
				return true
			})
		}
		if total != len(full) || len(seen) != len(full) {
			t.Fatalf("bits=%d: partitions produced %d trees (%d distinct), full enumeration has %d",
				bits, total, len(seen), len(full))
		}
		for key := range seen {
			if !full[key] {
				t.Fatalf("bits=%d: partition produced tree %s not in full enumeration", bits, key)
			}
		}
	}
}

func TestPartitionPrefixesClamped(t *testing.T) {
	if got := len(PartitionPrefixes(4, 10)); got != 16 {
		t.Fatalf("bits clamped to nEdges: %d prefixes, want 16", got)
	}
	if got := len(PartitionPrefixes(100, 20)); got != 1<<16 {
		t.Fatalf("bits clamped to 16: %d prefixes, want %d", got, 1<<16)
	}
	if got := len(PartitionPrefixes(5, -3)); got != 1 {
		t.Fatalf("negative bits: %d prefixes, want 1", got)
	}
}

func TestHooksVetoPrunesSubtree(t *testing.T) {
	// Vetoing every inclusion of edge 0 must remove exactly the trees
	// containing edge 0, and Undo must never fire for vetoed edges.
	g := CompleteBipartite(2, 3)
	withEdge0 := 0
	total := Enumerate(g, func(edges []int) bool {
		for _, e := range edges {
			if e == 0 {
				withEdge0++
				break
			}
		}
		return true
	})
	undos := 0
	h := &Hooks{
		Include: func(ei int) bool { return ei != 0 },
		Undo: func(ei int) {
			if ei == 0 {
				t.Fatal("Undo called for a vetoed edge")
			}
			undos++
		},
	}
	got := NewEnumerator(g).Enumerate(nil, h, func([]int) bool { return true })
	if got != total-withEdge0 {
		t.Fatalf("veto of edge 0: %d trees, want %d (%d total - %d containing it)",
			got, total-withEdge0, total, withEdge0)
	}
	if undos == 0 {
		t.Fatal("Undo never called for accepted edges")
	}
}

func TestHooksIncludeUndoBalanced(t *testing.T) {
	// Accepted includes and undos must pair up LIFO; at the end the stack
	// is empty.
	g := CompleteBipartite(3, 3)
	var stack []int
	h := &Hooks{
		Include: func(ei int) bool {
			stack = append(stack, ei)
			return true
		},
		Undo: func(ei int) {
			if len(stack) == 0 || stack[len(stack)-1] != ei {
				t.Fatalf("Undo(%d) does not match include stack %v", ei, stack)
			}
			stack = stack[:len(stack)-1]
		},
	}
	n := NewEnumerator(g).Enumerate(nil, h, func([]int) bool { return true })
	if n != 81 {
		t.Fatalf("hooked enumeration visited %d trees, want 81", n)
	}
	if len(stack) != 0 {
		t.Fatalf("include stack not empty after enumeration: %v", stack)
	}
}

func TestEnumeratorReuse(t *testing.T) {
	// One Enumerator must give identical results across repeated calls and
	// mixed prefix/no-prefix use.
	g := CompleteBipartite(3, 4)
	en := NewEnumerator(g)
	first := en.Enumerate(nil, nil, nil)
	if first != CountCompleteBipartite(3, 4) {
		t.Fatalf("first enumeration: %d trees, want %d", first, CountCompleteBipartite(3, 4))
	}
	partial := 0
	for _, prefix := range PartitionPrefixes(len(g.Edges), 3) {
		partial += en.Enumerate(prefix, nil, nil)
	}
	if partial != first {
		t.Fatalf("partitioned reuse: %d trees, want %d", partial, first)
	}
	if again := en.Enumerate(nil, nil, nil); again != first {
		t.Fatalf("third enumeration: %d trees, want %d", again, first)
	}
}

func TestPrefixTrivialGraph(t *testing.T) {
	// A graph with one vertex has a single empty tree; it matches only the
	// all-exclude prefix.
	g := newGraph(1)
	if got := NewEnumerator(g).Enumerate(nil, nil, nil); got != 1 {
		t.Fatalf("trivial graph, nil prefix: %d, want 1", got)
	}
}
