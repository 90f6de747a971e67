package main

import (
	"math"
	"testing"
)

func TestSummarizeOnHandCheckedVectors(t *testing.T) {
	for _, tc := range []struct {
		in            []float64
		p25, p50, p75 float64
	}{
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{10, 20, 30, 40, 50}, 20, 30, 40},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if s.P25 != tc.p25 || s.P50 != tc.p50 || s.P75 != tc.p75 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", tc.in, s, tc.p25, tc.p50, tc.p75)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	if in := []float64{3, 1, 2}; median(in) != 2 || in[0] != 3 {
		t.Errorf("median must not reorder its input: %v", in)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Completions at 0.2 s (32 items), 0.9 s (32), 1.5 s (32), 2.1 s (32,
	// in the partial third window of a 2.5 s measurement, which is dropped).
	at := []float64{0.2, 0.9, 1.5, 2.1}
	items := []int{32, 32, 32, 32}
	got := windowRates(at, items, 1, 2.5)
	if len(got) != 2 || got[0] != 64 || got[1] != 32 {
		t.Fatalf("windowRates = %v, want [64 32]", got)
	}
	if got := windowRates(at, items, 0.5, 1); len(got) != 2 || got[0] != 64 || got[1] != 64 {
		t.Fatalf("half-second windows = %v, want [64 64] items/s", got)
	}
	if got := windowRates(at, items, 1, 0.5); got != nil {
		t.Fatalf("a measurement shorter than one window has no whole window, got %v", got)
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if geomean(nil) != 0 || mean(nil) != 0 {
		t.Error("empty inputs must read 0")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := sum([]float64{0.5, 0.25}); got != 0.75 {
		t.Errorf("sum = %v, want 0.75", got)
	}
}
