package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summary is what is printed beside a timing: the median with its quartiles
// and the sample count.
type summary struct {
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	N   int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// percentile is quantile on unsorted input.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// windowRates buckets completion events (seconds since the start of the
// measurement, each carrying a number of items) into consecutive windows of
// the given width and returns items per second for every window that lies
// entirely inside [0, total): the trailing partial window is dropped.
func windowRates(at []float64, items []int, width, total float64) []float64 {
	n := int(total / width)
	if n <= 0 {
		return nil
	}
	counts := make([]float64, n)
	for i, t := range at {
		w := int(t / width)
		if w >= 0 && w < n {
			counts[w] += float64(items[i])
		}
	}
	for i := range counts {
		counts[i] /= width
	}
	return counts
}

// geomean returns the geometric mean of positive values (0 when empty),
// accumulated in slice order so it repeats bit for bit.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
