package grid

import (
	"slices"
	"testing"
)

//
// This file compares enumerators of the non-decreasing arrangements side
// by side; grid.go ships the rank-window fill, the plain backtracking fill
// it replaced (referenceNonDecreasing, enumerate_test.go) and the static
// window over the whole multiset live here only.
//
//	go test ./internal/grid -run '^$' -bench DevelEnumerate -benchmem
//
// Each row counts the arrangements of distinct cycle-times (the standard
// Young tableaux: 42 at 3×3, 462 at 3×4, 24,024 at 4×4); the test-code
// rows also report the recursion nodes they enter.
//

// staticWindowNonDecreasing is the backtracking fill with the rank window
// fixed by the whole multiset instead of the values still unplaced: the
// value at cell (i, j) must have its group's last sorted index at least
// (i+1)(j+1)−1 and its first at most p·q−(p−i)(q−j). Counts only.
func staticWindowNonDecreasing(times []float64, p, q int) (count, nodes int) {
	sorted := append([]float64(nil), times...)
	slices.Sort(sorted)
	n := p * q
	first, last := make([]int, n), make([]int, n)
	for k := range sorted {
		first[k], last[k] = k, k
		if k > 0 && sorted[k] == sorted[k-1] {
			first[k] = first[k-1]
		}
	}
	for k := n - 2; k >= 0; k-- {
		if sorted[k] == sorted[k+1] {
			last[k] = last[k+1]
		}
	}
	t := make([]float64, n)
	used := make([]bool, n)
	var rec func(pos int)
	rec = func(pos int) {
		nodes++
		if pos == n {
			count++
			return
		}
		i, j := pos/q, pos%q
		minVal := 0.0
		if j > 0 {
			minVal = t[pos-1]
		}
		if i > 0 && t[pos-q] > minVal {
			minVal = t[pos-q]
		}
		lo, hi := (i+1)*(j+1)-1, n-(p-i)*(q-j)
		for k := 0; k < n && first[k] <= hi; k++ {
			if used[k] || sorted[k] < minVal || last[k] < lo || k > 0 && sorted[k] == sorted[k-1] && !used[k-1] {
				continue
			}
			used[k] = true
			t[pos] = sorted[k]
			rec(pos + 1)
			used[k] = false
		}
	}
	rec(0)
	return count, nodes
}

func BenchmarkDevelEnumerate(b *testing.B) {
	for _, dims := range [][2]int{{3, 3}, {3, 4}, {4, 4}} {
		p, q := dims[0], dims[1]
		times := make([]float64, p*q)
		for i := range times {
			times[i] = float64(p*q - i)
		}
		want := HookLengthCount(p, q)
		label := string(rune('0'+p)) + "x" + string(rune('0'+q))
		rows := []struct {
			name string
			run  func() (count, nodes int)
		}{
			{"reference", func() (int, int) { return referenceNonDecreasing(times, p, q, nil) }},
			{"static-window", func() (int, int) { return staticWindowNonDecreasing(times, p, q) }},
			{"shipped", func() (int, int) {
				n, err := EnumerateNonDecreasing(times, p, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				return n, 0
			}},
		}
		for _, r := range rows {
			b.Run(label+"/"+r.name, func(b *testing.B) {
				var nodes int
				for i := 0; i < b.N; i++ {
					var n int
					if n, nodes = r.run(); n != want {
						b.Fatalf("%d arrangements, want %d", n, want)
					}
				}
				if nodes > 0 {
					b.ReportMetric(float64(nodes), "nodes/op")
				}
			})
		}
	}
}
