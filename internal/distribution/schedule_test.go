package distribution

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
)

func mustLayout(t *testing.T, d Distribution) *Layout {
	t.Helper()
	l, err := NewLayout(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// allPanels returns every kernel's panel messages at step k, tagged
// horizontal (row panels: receivers along a block row) or vertical.
func allPanels(l *Layout, k int) (horizontal, vertical [][]Msg) {
	a, b := l.MMPanels(k)
	_, _, lp, up := l.LUPanels(k)
	return [][]Msg{a, lp}, [][]Msg{b, up}
}

func TestProductScheduleStaysInsideGridRowsAndColumns(t *testing.T) {
	// The paper's point about product distributions: every panel message
	// stays inside its root's grid row (horizontal) or grid column
	// (vertical), and each root sends at most once per panel.
	const nb, q = 12, 2
	l := mustLayout(t, volPanel(t, nb))
	for k := 0; k < nb; k++ {
		hor, ver := allPanels(l, k)
		check := func(panels [][]Msg, same func(a, b int) bool, what string) {
			for _, msgs := range panels {
				roots := map[int]bool{}
				for _, m := range msgs {
					if roots[m.Root] {
						t.Fatalf("step %d: root %d sends twice in one %s panel", k, m.Root, what)
					}
					roots[m.Root] = true
					for _, r := range m.Recv {
						if !same(m.Root, r) {
							t.Fatalf("step %d: %s message from %d reaches %d outside its grid line", k, what, m.Root, r)
						}
					}
				}
			}
		}
		check(hor, func(a, b int) bool { return a/q == b/q }, "row")
		check(ver, func(a, b int) bool { return a%q == b%q }, "column")
	}
}

func TestKLScheduleBreaksTheGridPattern(t *testing.T) {
	// Kalinov–Lastovetsky's per-column row boundaries make some horizontal
	// message cross grid rows — the extra neighbours of the paper's Fig. 3.
	const nb, q = 12, 2
	kl, err := NewKL(volArr(), nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLayout(t, kl)
	for k := 0; k < nb; k++ {
		a, _ := l.MMPanels(k)
		for _, m := range a {
			for _, r := range m.Recv {
				if r/q != m.Root/q {
					return
				}
			}
		}
	}
	t.Fatal("no KL row-panel message leaves its grid row")
}

func TestPanelMessagesPartitionTheirBlocks(t *testing.T) {
	// Messages carry every panel block exactly once, ascending inside a
	// message, in order of their first block; receivers are distinct.
	const nb = 9
	kl, err := NewKL(volArr(), nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLayout(t, kl)
	for k := 0; k < nb; k++ {
		a, b := l.MMPanels(k)
		_, lp := l.CholeskyPanels(k)
		for _, tc := range []struct {
			msgs []Msg
			lo   int
			root func(i int) int
		}{
			{a, 0, func(i int) int { return l.Owner(i, k) }},
			{b, 0, func(i int) int { return l.Owner(k, i) }},
			{lp, k + 1, func(i int) int { return l.Owner(i, k) }},
		} {
			var got []int
			first := -1
			for _, m := range tc.msgs {
				if m.Blocks[0] <= first {
					t.Fatalf("step %d: messages out of first-block order: %+v", k, tc.msgs)
				}
				first = m.Blocks[0]
				seen := map[int]bool{}
				for _, r := range m.Recv {
					if seen[r] {
						t.Fatalf("step %d: duplicate receiver in %+v", k, m)
					}
					seen[r] = true
				}
				for j, i := range m.Blocks {
					if j > 0 && i <= m.Blocks[j-1] {
						t.Fatalf("step %d: blocks not ascending in %+v", k, m)
					}
					if tc.root(i) != m.Root {
						t.Fatalf("step %d: block %d travels with root %d, owner is %d", k, i, m.Root, tc.root(i))
					}
					got = append(got, i)
				}
			}
			if len(got) != nb-tc.lo {
				t.Fatalf("step %d: %d blocks carried, panel has %d", k, len(got), nb-tc.lo)
			}
		}
	}
}

// firstAppearance returns the distinct ranks among the owners of blocks, in
// first-appearance order: the receiver list of a panel block, derived here
// by brute force from Owner alone.
func firstAppearance(l *Layout, blocks [][2]int) []int {
	var out []int
	for _, b := range blocks {
		if n := l.Owner(b[0], b[1]); !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// rowBlocks lists blocks (bi, j), lo ≤ j < hi; colBlocks blocks (i, bj),
// lo ≤ i < hi.
func rowBlocks(bi, lo, hi int) (out [][2]int) {
	for j := lo; j < hi; j++ {
		out = append(out, [2]int{bi, j})
	}
	return out
}

func colBlocks(bj, lo, hi int) (out [][2]int) {
	for i := lo; i < hi; i++ {
		out = append(out, [2]int{i, bj})
	}
	return out
}

// scheduleLayouts returns uniform, Kalinov–Lastovetsky and heterogeneous
// panel layouts of an nb×nb block matrix on a 2×2 and a 3×3 grid.
func scheduleLayouts(t *testing.T, nb int) map[string]*Layout {
	t.Helper()
	out := map[string]*Layout{}
	for _, g := range []struct {
		name  string
		arr   *grid.Arrangement
		panel int
	}{
		{"2x2", volArr(), 4},
		{"3x3", grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}), 6},
	} {
		uni, err := UniformBlockCyclic(g.arr.P, g.arr.Q, nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := NewKL(g.arr, nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := core.SolveArrangementExactOpt(g.arr, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pan, err := BestPanel(sol, g.panel, g.panel, Interleaved, Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		het, err := pan.Distribution(nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []Distribution{uni, kl, het} {
			out[g.name+"/"+d.Name()] = mustLayout(t, d)
		}
	}
	return out
}

// TestPanelReceiversMatchBruteForce: every receiver list the schedule
// derives — each message of the three kernels' panels at every step, and
// every rowOwners suffix — equals the first-appearance owners of the blocks
// the message's blocks are consumed on, listed from Owner one by one.
func TestPanelReceiversMatchBruteForce(t *testing.T) {
	for _, nb := range []int{9, 37} {
		for name, l := range scheduleLayouts(t, nb) {
			where := fmt.Sprintf("nb %d %s", nb, name)
			for bi := 0; bi < nb; bi++ {
				for jmin := 0; jmin <= nb; jmin++ {
					if got, want := l.rowOwners(bi, jmin), firstAppearance(l, rowBlocks(bi, jmin, nb)); !slices.Equal(got, want) {
						t.Fatalf("%s: rowOwners(%d, %d) = %v, want %v", where, bi, jmin, got, want)
					}
				}
			}
			for k := 0; k < nb; k++ {
				check := func(what string, msgs []Msg, root func(i int) int, consumers func(i int) [][2]int) {
					t.Helper()
					for _, m := range msgs {
						for _, i := range m.Blocks {
							if root(i) != m.Root {
								t.Fatalf("%s step %d %s: block %d leaves %d, owner is %d", where, k, what, i, m.Root, root(i))
							}
							if want := firstAppearance(l, consumers(i)); !slices.Equal(m.Recv, want) {
								t.Fatalf("%s step %d %s: block %d goes to %v, want %v", where, k, what, i, m.Recv, want)
							}
						}
					}
				}
				inCol := func(i int) int { return l.Owner(i, k) }
				inRow := func(j int) int { return l.Owner(k, j) }
				a, b := l.MMPanels(k)
				check("mm A", a, inCol, func(i int) [][2]int { return rowBlocks(i, 0, nb) })
				check("mm B", b, inRow, func(j int) [][2]int { return colBlocks(j, 0, nb) })
				diagDown, diagRight, lp, up := l.LUPanels(k)
				check("lu diag down", []Msg{diagDown}, inCol, func(int) [][2]int { return colBlocks(k, k+1, nb) })
				check("lu diag right", []Msg{diagRight}, inRow, func(int) [][2]int { return rowBlocks(k, k, nb) })
				check("lu L", lp, inCol, func(i int) [][2]int { return rowBlocks(i, k, nb) })
				check("lu U", up, inRow, func(j int) [][2]int { return colBlocks(j, k, nb) })
				cholDown, cp := l.CholeskyPanels(k)
				check("chol diag down", []Msg{cholDown}, inCol, func(int) [][2]int { return colBlocks(k, k+1, nb) })
				check("chol L", cp, inCol, func(i int) [][2]int {
					return append(rowBlocks(i, k+1, i+1), colBlocks(i, i, nb)...)
				})
			}
		}
	}
}

func TestRegionsAndBlockLists(t *testing.T) {
	const nb = 7
	l := mustLayout(t, volPanel(t, nb))
	for _, r := range []Region{All, Trailing, TrailingLower} {
		for k := 0; k < nb; k++ {
			total := 0
			for n, blocks := range l.Blocks(r, k) {
				total += len(blocks)
				for _, b := range blocks {
					if l.Owner(b[0], b[1]) != n || !r.Contains(b[0], b[1], k) {
						t.Fatalf("region %d step %d: block %v listed for rank %d", r, k, b, n)
					}
				}
			}
			m := nb - k
			if want := map[Region]int{All: nb * nb, Trailing: m * m, TrailingLower: m * (m + 1) / 2}[r]; total != want {
				t.Fatalf("region %d step %d: %d blocks, want %d", r, k, total, want)
			}
			// The update is the region past the panel: what is active next step.
			next := k
			if r != All {
				next = k + 1
			}
			if !reflect.DeepEqual(l.Update(r, k), l.Blocks(r, next)) {
				t.Fatalf("region %d step %d: update differs from next step's region", r, k)
			}
		}
	}
	below, right := 0, 0
	for k := 0; k < nb; k++ {
		for n := 0; n < l.Ranks; n++ {
			below += len(l.ColBelow(k)[n])
			right += len(l.RowRight(k)[n])
		}
	}
	if want := nb * (nb - 1) / 2; below != want || right != want {
		t.Fatalf("panel lists hold %d/%d blocks, want %d each", below, right, want)
	}
}

func TestNewLayoutValidation(t *testing.T) {
	rect, err := UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayout(rect); err == nil {
		t.Fatal("non-square block matrix accepted")
	}
	if _, err := NewLayout(&Product{P: 2, Q: 2, RowOwner: []int{0, 5}, ColOwner: []int{0, 1}}); err == nil {
		t.Fatal("owner outside the grid accepted")
	}
}

// TestQRStepMatchesBruteForce holds QR's step schedule to a derivation
// from Owner alone: gather, scatter and V carry each block of column k
// (rows k..) once, V block row bi to the owners of its trailing blocks and
// Tᵀ to those of the last block row; the chains partition the trailing
// columns, column k+1's alone first, the others by owner sequence, each
// sequence cut into maximal runs of one owner, and Back goes from the last
// run's owner to the owners of the others, nearest first.
func TestQRStepMatchesBruteForce(t *testing.T) {
	for _, nb := range []int{9, 13} {
		for name, l := range scheduleLayouts(t, nb) {
			for k := 0; k < nb; k++ {
				where := fmt.Sprintf("nb %d %s step %d", nb, name, k)
				st := l.QRStep(k)
				master := l.Owner(k, k)
				carried := func(what string, msgs []Msg, root func(i int) int, recv func(i int) []int) {
					var got []int
					for _, m := range msgs {
						for _, i := range m.Blocks {
							if m.Root != root(i) || !slices.Equal(m.Recv, recv(i)) {
								t.Fatalf("%s: %s block %d goes %d → %v", where, what, i, m.Root, m.Recv)
							}
							got = append(got, i)
						}
					}
					slices.Sort(got)
					if want := rowsFrom(k, nb); !slices.Equal(got, want) {
						t.Fatalf("%s: %s carries blocks %v", where, what, got)
					}
				}
				carried("gather", st.Gather, func(i int) int { return l.Owner(i, k) }, func(int) []int { return []int{master} })
				carried("scatter", st.Scatter, func(int) int { return master }, func(i int) []int { return []int{l.Owner(i, k)} })
				if k+1 == nb {
					if len(st.V) != 0 || len(st.Chains) != 0 || st.T.Fanout() != 0 {
						t.Fatalf("%s: the last step has trailing messages", where)
					}
					continue
				}
				carried("V", st.V, func(int) int { return master }, func(i int) []int { return firstAppearance(l, rowBlocks(i, k+1, nb)) })
				if want := firstAppearance(l, rowBlocks(nb-1, k+1, nb)); st.T.Root != master || !slices.Equal(st.T.Recv, want) {
					t.Fatalf("%s: Tᵀ goes %d → %v, want %d → %v", where, st.T.Root, st.T.Recv, master, want)
				}
				owners := func(bj int) (seq []int) {
					for bi := k; bi < nb; bi++ {
						seq = append(seq, l.Owner(bi, bj))
					}
					return seq
				}
				var cols []int
				for ci, c := range st.Chains {
					if (ci == 0) != (c.Cols[0] == k+1) || ci == 0 && len(c.Cols) != 1 {
						t.Fatalf("%s: chain %d has columns %v", where, ci, c.Cols)
					}
					for _, bj := range c.Cols {
						if !slices.Equal(owners(bj), owners(c.Cols[0])) {
							t.Fatalf("%s: columns %d and %d share a chain but not their owners", where, c.Cols[0], bj)
						}
					}
					for _, o := range st.Chains[max(ci, 1):] {
						if ci > 0 && o.Cols[0] != c.Cols[0] && slices.Equal(owners(o.Cols[0]), owners(c.Cols[0])) {
							t.Fatalf("%s: columns %d and %d have one owner sequence and two chains", where, c.Cols[0], o.Cols[0])
						}
					}
					cols = append(cols, c.Cols...)
					var rows []int
					var blocks [][2]int
					for si, sg := range c.Segs {
						if si > 0 && c.Segs[si-1].Owner == sg.Owner {
							t.Fatalf("%s: runs %d and %d of chain %v have one owner", where, si-1, si, c.Cols)
						}
						for bi := sg.Lo; bi < sg.Hi; bi++ {
							if l.Owner(bi, c.Cols[0]) != sg.Owner {
								t.Fatalf("%s: run %+v holds block row %d of another owner", where, sg, bi)
							}
							rows = append(rows, bi)
							blocks = append([][2]int{{bi, c.Cols[0]}}, blocks...)
						}
					}
					if !slices.Equal(rows, rowsFrom(k, nb)) {
						t.Fatalf("%s: chain %v runs over rows %v", where, c.Cols, rows)
					}
					up := slices.DeleteFunc(firstAppearance(l, blocks), func(n int) bool { return n == c.Back.Root })
					if c.Back.Root != c.Segs[len(c.Segs)-1].Owner || !slices.Equal(c.Back.Recv, up) || !slices.Equal(c.Back.Blocks, c.Cols) {
						t.Fatalf("%s: chain %v broadcasts back %+v", where, c.Cols, c.Back)
					}
				}
				slices.Sort(cols)
				if !slices.Equal(cols, rowsFrom(k+1, nb)) {
					t.Fatalf("%s: chains cover columns %v", where, cols)
				}
			}
		}
	}
}

// rowsFrom returns lo, lo+1, …, hi-1.
func rowsFrom(lo, hi int) (out []int) {
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// brutePacks derives the master collectives' packs from Owner and
// Region.Contains alone: per block row, the region's blocks grouped by
// owner, owners in the order of their first block, columns ascending.
func brutePacks(d Distribution, r Region, k int) []Pack {
	nbr, nbc := d.Blocks()
	var out []Pack
	for bi := 0; bi < nbr; bi++ {
		at := map[int]int{}
		for bj := 0; bj < nbc; bj++ {
			if !r.Contains(bi, bj, k) {
				continue
			}
			o := OwnerRank(d, bi, bj)
			i, ok := at[o]
			if !ok {
				i, at[o] = len(out), len(out)
				out = append(out, Pack{Owner: o, BI: bi})
			}
			out[i].Cols = append(out[i].Cols, bj)
		}
	}
	return out
}

// TestMasterPacksMatchBruteForce holds MasterPacks to brutePacks on the
// uniform, KL and het-panel layouts of three grids over square and
// non-square block matrices, some with owners of no block, for every
// region at every step (and one past the last): the packs partition
// exactly the region's blocks, each is one owner's blocks of one block
// row, and they come in row-major order of their first block.
func TestMasterPacksMatchBruteForce(t *testing.T) {
	seen := map[string]bool{}
	for _, arr := range []*grid.Arrangement{
		volArr(),
		grid.MustNew([][]float64{{1, 2, 2}, {3, 5, 4}}),
		grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}),
	} {
		sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][2]int{{1, 1}, {2, 7}, {5, 5}, {7, 3}, {9, 4}} {
			nbr, nbc := shape[0], shape[1]
			uni, err := UniformBlockCyclic(arr.P, arr.Q, nbr, nbc)
			if err != nil {
				t.Fatal(err)
			}
			kl, err := NewKL(arr, nbr, nbc)
			if err != nil {
				t.Fatal(err)
			}
			dists := []Distribution{uni, kl}
			if nbr >= arr.P && nbc >= arr.Q {
				pan, err := BestPanel(sol, min(nbr, 6), min(nbc, 6), Interleaved, Interleaved)
				if err != nil {
					t.Fatal(err)
				}
				het, err := pan.Distribution(nbr, nbc)
				if err != nil {
					t.Fatal(err)
				}
				dists = append(dists, het)
			}
			for _, d := range dists {
				held := make([]bool, arr.P*arr.Q)
				for _, p := range MasterPacks(d, All, 0) {
					held[p.Owner] = true
				}
				seen[d.Name()] = true
				seen["non-square"] = seen["non-square"] || nbr != nbc
				seen["idle owner"] = seen["idle owner"] || slices.Contains(held, false)
				for _, r := range []Region{All, Trailing, TrailingLower} {
					for k := 0; k <= max(nbr, nbc); k++ {
						if got, want := MasterPacks(d, r, k), brutePacks(d, r, k); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %d×%d grid, %d×%d blocks, region %d step %d:\n got %v\nwant %v", d.Name(), arr.P, arr.Q, nbr, nbc, r, k, got, want)
						}
					}
				}
			}
		}
	}
	for _, k := range []string{"uniform-cyclic", "kalinov-lastovetsky", "het-panel", "non-square", "idle owner"} {
		if !seen[k] {
			t.Errorf("no %s case drawn", k)
		}
	}
}
