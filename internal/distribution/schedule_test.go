package distribution

import (
	"reflect"
	"testing"
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
