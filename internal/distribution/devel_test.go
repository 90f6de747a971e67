package distribution

import (
	"reflect"
	"slices"
	"testing"

	"hetgrid/internal/core"
)

//
// This file compares derivations of the panel messages' receivers side by
// side; schedule.go ships the scratch scan, the per-block derivation it
// replaced lives here only.
//
//	go test ./internal/distribution -run '^$' -bench DevelReceivers -benchmem
//

// perBlockOwners lists the distinct ranks among at(0), …, at(count-1) in
// first-appearance order, in a fresh list with a fresh seen table.
func perBlockOwners(l *Layout, count int, at func(i int) int) []int {
	seen := make([]bool, l.Ranks)
	var out []int
	for i := 0; i < count; i++ {
		if n := at(i); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// perBlockGroup is group as it was: every block's receivers are a fresh
// list, dropped when an earlier message already has the same root and list.
func perBlockGroup(l *Layout, lo int, root func(i int) int, recv func(i int) []int) []Msg {
	var msgs []Msg
	for i := lo; i < l.NB; i++ {
		r, rs := root(i), recv(i)
		at := slices.IndexFunc(msgs, func(m Msg) bool { return m.Root == r && slices.Equal(m.Recv, rs) })
		if at < 0 {
			at = len(msgs)
			msgs = append(msgs, Msg{Root: r, Recv: rs})
		}
		msgs[at].Blocks = append(msgs[at].Blocks, i)
	}
	return msgs
}

// perBlockPanels derives step k's messages of the three kernels the
// per-block way, in the order shippedPanels returns them.
func perBlockPanels(l *Layout, k int) []Msg {
	rowOwners := func(bi, jmin int) []int {
		return perBlockOwners(l, l.NB-jmin, func(i int) int { return l.Owner(bi, jmin+i) })
	}
	colOwners := func(bj, imin int) []int {
		return perBlockOwners(l, l.NB-imin, func(i int) int { return l.Owner(imin+i, bj) })
	}
	rowPanel := func(col, lo, jmin int) []Msg {
		return perBlockGroup(l, lo,
			func(bi int) int { return l.Owner(bi, col) },
			func(bi int) []int { return rowOwners(bi, jmin) })
	}
	colPanel := func(row, lo, imin int) []Msg {
		return perBlockGroup(l, lo,
			func(bj int) int { return l.Owner(row, bj) },
			func(bj int) []int { return colOwners(bj, imin) })
	}
	diagDown := Msg{Root: l.Owner(k, k), Recv: colOwners(k, k+1), Blocks: []int{k}}
	diagRight := Msg{Root: l.Owner(k, k), Recv: rowOwners(k, k), Blocks: []int{k}}
	chol := perBlockGroup(l, k+1,
		func(bi int) int { return l.Owner(bi, k) },
		func(bi int) []int {
			across := bi - k
			return perBlockOwners(l, across+l.NB-bi, func(i int) int {
				if i < across {
					return l.Owner(bi, k+1+i)
				}
				return l.Owner(bi+i-across, bi)
			})
		})
	return slices.Concat(rowPanel(k, 0, 0), colPanel(k, 0, 0), []Msg{diagDown, diagRight},
		rowPanel(k, k+1, k), colPanel(k, k+1, k), []Msg{diagDown}, chol)
}

// shippedPanels is the same through the schedule's exported panels.
func shippedPanels(l *Layout, k int) []Msg {
	a, b := l.MMPanels(k)
	luDown, luRight, lp, up := l.LUPanels(k)
	cholDown, cp := l.CholeskyPanels(k)
	return slices.Concat(a, b, []Msg{luDown, luRight}, lp, up, []Msg{cholDown}, cp)
}

var develReceivers = []struct {
	name   string
	panels func(l *Layout, k int) []Msg
}{
	{"per-block", perBlockPanels},
	{"scratch-scan", shippedPanels},
}

// develLayouts returns the 3×3 layouts of the benchmark's sim-paper
// workload at nb = 48: Kalinov–Lastovetsky and the heterogeneous panel
// (best panel up to 12×12, interleaved as for LU and Cholesky) on the
// arrangement planned for cycle times 1..9.
func develLayouts(tb testing.TB) []develLayout {
	tb.Helper()
	const nb = 48
	hr, err := core.SolveHeuristic([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3, core.HeuristicOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	kl, err := NewKL(hr.Solution.Arr, nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	pan, err := BestPanel(hr.Solution, 12, 12, Interleaved, Interleaved)
	if err != nil {
		tb.Fatal(err)
	}
	het, err := pan.Distribution(nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	var out []develLayout
	for _, d := range []Distribution{kl, het} {
		l, err := NewLayout(d)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, develLayout{d.Name(), l})
	}
	return out
}

type develLayout struct {
	name string
	l    *Layout
}

// TestDevelReceiversAgree keeps the bench honest: both derivations give
// the same messages at every step.
func TestDevelReceiversAgree(t *testing.T) {
	for _, dl := range develLayouts(t) {
		for k := 0; k < dl.l.NB; k++ {
			if got, want := shippedPanels(dl.l, k), perBlockPanels(dl.l, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s step %d: scratch scan %+v, per-block %+v", dl.name, k, got, want)
			}
		}
	}
}

// BenchmarkDevelReceivers derives every step's messages of the three
// kernels once per op, per layout and derivation.
func BenchmarkDevelReceivers(b *testing.B) {
	for _, dl := range develLayouts(b) {
		for _, alt := range develReceivers {
			b.Run(dl.name+"/"+alt.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for k := 0; k < dl.l.NB; k++ {
						alt.panels(dl.l, k)
					}
				}
			})
		}
	}
}
