// Package onedim implements the uni-dimensional heterogeneous allocation
// algorithms from the companion papers of Beaumont, Boudet, Rastello and
// Robert ([5, 6] in the IPPS 2000 paper). They are the building blocks the
// 2D strategies reduce to:
//
//   - Sequence: optimal static distribution of B identical blocks over
//     processors of different speeds, minimizing the makespan max n_i·t_i,
//     in the order the incremental greedy (give the next block to the
//     processor that finishes it first) hands them out; the greedy is
//     provably optimal for this problem. For LU/QR the order of panel
//     columns matters (§3.2.2): running the greedy over the "equivalent
//     column processors" yields interleavings such as ABAABA in the
//     paper's example.
//   - AggregateCycleTime: the cycle-time of the single virtual processor
//     equivalent to a group working concurrently (speeds add; cycle-times
//     combine harmonically), used to weight processor columns.
package onedim

import (
	"fmt"
	"math"
)

// validateTimes checks that all cycle-times are positive and finite.
func validateTimes(times []float64) error {
	if len(times) == 0 {
		return fmt.Errorf("onedim: no processors")
	}
	for i, t := range times {
		if !(t > 0) || math.IsInf(t, 0) {
			return fmt.Errorf("onedim: cycle-time t[%d] = %v must be positive and finite", i, t)
		}
	}
	return nil
}

// Sequence returns the processor index chosen for each of the b blocks in
// greedy order: element k is the processor that receives the k-th block.
// Every prefix of length k holds counts n_i with Σn_i = k that minimize the
// makespan max_i n_i·times[i] (ties go to the lower index), and the
// sequence itself is the periodic column-allocation pattern used for LU/QR
// panels (e.g. the ABAABA ordering of the paper's §3.2.2 example).
func Sequence(b int, times []float64) ([]int, error) {
	if b < 0 {
		return nil, fmt.Errorf("onedim: negative block count %d", b)
	}
	if err := validateTimes(times); err != nil {
		return nil, err
	}
	counts := make([]int, len(times))
	seq := make([]int, b)
	for k := 0; k < b; k++ {
		p := nextProcessor(counts, times)
		seq[k] = p
		counts[p]++
	}
	return seq, nil
}

// nextProcessor returns the index minimizing (counts[i]+1) * times[i],
// breaking ties toward the lower index.
func nextProcessor(counts []int, times []float64) int {
	best := 0
	bestCost := (float64(counts[0]) + 1) * times[0]
	for i := 1; i < len(times); i++ {
		cost := (float64(counts[i]) + 1) * times[i]
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// makespan returns max_i counts[i]*times[i], the parallel completion time of
// the allocation (in block-update units).
func makespan(counts []int, times []float64) float64 {
	max := 0.0
	for i, n := range counts {
		if v := float64(n) * times[i]; v > max {
			max = v
		}
	}
	return max
}

// BruteForceAllocate finds an optimal allocation by exhaustive search. It is
// exponential and exists to validate Sequence's counts in tests. Ties are broken toward the allocation found first in
// lexicographic order of counts.
func BruteForceAllocate(b int, times []float64) ([]int, error) {
	if b < 0 {
		return nil, fmt.Errorf("onedim: negative block count %d", b)
	}
	if err := validateTimes(times); err != nil {
		return nil, err
	}
	n := len(times)
	best := make([]int, n)
	bestSpan := math.Inf(1)
	cur := make([]int, n)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n-1 {
			cur[i] = left
			if span := makespan(cur, times); span < bestSpan {
				bestSpan = span
				copy(best, cur)
			}
			return
		}
		for k := 0; k <= left; k++ {
			cur[i] = k
			rec(i+1, left-k)
		}
	}
	rec(0, b)
	return best, nil
}

// AggregateCycleTime returns the cycle-time of the single virtual processor
// equivalent to running counts[i] block-rows on processor i concurrently:
// speeds add, so the aggregate speed is Σ counts[i]/times[i] and the
// aggregate cycle-time its inverse. This is how a processor column of a 2D
// grid is reduced to one "column processor" when ordering LU panel columns
// (§3.2.2: 6 blocks at cycle-time 1 plus 2 at cycle-time 3 ⇒ 3/20).
func AggregateCycleTime(counts []int, times []float64) (float64, error) {
	if len(counts) != len(times) {
		return 0, fmt.Errorf("onedim: %d counts for %d processors", len(counts), len(times))
	}
	if err := validateTimes(times); err != nil {
		return 0, err
	}
	speed := 0.0
	for i, n := range counts {
		if n < 0 {
			return 0, fmt.Errorf("onedim: negative count %d at %d", n, i)
		}
		speed += float64(n) / times[i]
	}
	if speed == 0 {
		return 0, fmt.Errorf("onedim: all counts zero")
	}
	return 1 / speed, nil
}

// HarmonicMeanCycleTime returns n / Σ(1/t_i): the cycle-time of the virtual
// processor equivalent to the whole group with one block each, used by the
// Kalinov–Lastovetsky distribution to weight processor columns.
func HarmonicMeanCycleTime(times []float64) (float64, error) {
	if err := validateTimes(times); err != nil {
		return 0, err
	}
	inv := 0.0
	for _, t := range times {
		inv += 1 / t
	}
	return float64(len(times)) / inv, nil
}
