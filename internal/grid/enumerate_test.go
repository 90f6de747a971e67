package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceNonDecreasing is EnumerateNonDecreasing as it was before the
// rank window: a row-major backtracking fill that checks only each cell's
// left and upper neighbours, trying each distinct remaining value once. It
// hands visit a fresh arrangement and returns the arrangements and the
// recursion nodes (cells entered, leaves included) it took. It shares no
// code with the enumerator it checks.
func referenceNonDecreasing(times []float64, p, q int, visit func(*Arrangement) bool) (count, nodes int) {
	sorted := append([]float64(nil), times...)
	slices.Sort(sorted)
	n := p * q
	t := make([][]float64, p)
	for i := range t {
		t[i] = make([]float64, q)
	}
	used := make([]bool, n)
	stopped := false
	var rec func(pos int)
	rec = func(pos int) {
		nodes++
		if pos == n {
			count++
			if visit != nil {
				cp := make([][]float64, p)
				for i := range cp {
					cp[i] = append([]float64(nil), t[i]...)
				}
				if !visit(&Arrangement{P: p, Q: q, T: cp}) {
					stopped = true
				}
			}
			return
		}
		i, j := pos/q, pos%q
		minVal := 0.0
		if j > 0 {
			minVal = t[i][j-1]
		}
		if i > 0 && t[i-1][j] > minVal {
			minVal = t[i-1][j]
		}
		prev := math.NaN()
		for k := 0; k < n; k++ {
			if used[k] || sorted[k] < minVal || sorted[k] == prev {
				continue
			}
			prev = sorted[k]
			used[k] = true
			t[i][j] = sorted[k]
			rec(pos + 1)
			used[k] = false
			if stopped {
				return
			}
		}
	}
	rec(0)
	return count, nodes
}

// checkAgainstReference fails unless EnumerateNonDecreasing emits exactly
// the reference's sequence of arrangements, element for element and in
// order. The exact search breaks ties by an arrangement's position in this
// sequence, so the order is part of the contract, not only the set.
func checkAgainstReference(t *testing.T, label string, times []float64, p, q int) {
	t.Helper()
	var want []*Arrangement
	referenceNonDecreasing(times, p, q, func(a *Arrangement) bool {
		want = append(want, a)
		return true
	})
	k := 0
	n, err := EnumerateNonDecreasing(times, p, q, func(a *Arrangement) bool {
		if k >= len(want) {
			t.Fatalf("%s: arrangement %d beyond the reference's %d:\n%s", label, k, len(want), a)
		}
		if !a.Equal(want[k]) {
			t.Fatalf("%s: arrangement %d is\n%swant\n%s", label, k, a, want[k])
		}
		k++
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if n != len(want) || k != len(want) {
		t.Fatalf("%s: %d arrangements (%d visits), reference %d", label, n, k, len(want))
	}
}

// tiedTimes draws p·q cycle-times from {1, …, distinct}: integer ties are
// common when distinct is small and absent when it is large.
func tiedTimes(rng *rand.Rand, n, distinct int) []float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(1 + rng.Intn(distinct))
	}
	return times
}

// TestEnumerateNonDecreasingMatchesReference holds the rank-window
// enumerator to the plain backtracking one on random multisets from 1×1 to
// 4×4 and on 2×5 and 5×2, with heavy, light and no ties. The reference
// needs ~10⁷ nodes on a distinct 4×4, so that shape runs once.
func TestEnumerateNonDecreasingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var shapes [][2]int
	for p := 1; p <= 4; p++ {
		for q := 1; q <= 4; q++ {
			if p*q < 16 {
				shapes = append(shapes, [2]int{p, q})
			}
		}
	}
	shapes = append(shapes, [2]int{2, 5}, [2]int{5, 2})
	for _, s := range shapes {
		p, q := s[0], s[1]
		for trial := 0; trial < 6; trial++ {
			distinct := []int{1, 2, 3, p * q, 4 * p * q, 1 << 20}[trial]
			times := tiedTimes(rng, p*q, distinct)
			checkAgainstReference(t, fmt.Sprintf("%d×%d %v", p, q, times), times, p, q)
		}
	}
	if testing.Short() {
		t.Log("-short: skipping the 4×4 case")
		return
	}
	times := tiedTimes(rng, 16, 1<<20)
	checkAgainstReference(t, fmt.Sprintf("4×4 %v", times), times, 4, 4)
}

// FuzzEnumerateNonDecreasing is the reference comparison on fuzzed
// multisets: the shape is the first two arguments (p·q ≤ 9), each cell
// value from one byte reduced to {1, …, 4}, so ties are common.
func FuzzEnumerateNonDecreasing(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(4), []byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add(uint8(1), uint8(5), []byte{3, 3, 3, 3, 3})
	f.Add(uint8(3), uint8(2), []byte{1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, pb, qb uint8, vals []byte) {
		p, q := int(pb), int(qb)
		if p < 1 || q < 1 || p*q > 9 || len(vals) < p*q {
			t.Skip()
		}
		times := make([]float64, p*q)
		for i := range times {
			times[i] = float64(1 + vals[i]%4)
		}
		checkAgainstReference(t, fmt.Sprintf("%d×%d %v", p, q, times), times, p, q)
	})
}
