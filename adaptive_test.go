package hetgrid

import (
	"testing"
)

func TestShouldRebalanceFacade(t *testing.T) {
	cur, err := Uniform(2, 2, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Latency: 0.01, ByteTime: 1e-6, BlockBytes: 8192}
	dec, err := ShouldRebalance(cur, []float64{1, 1, 1, 5}, 20, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Redistribute {
		t.Fatalf("should rebalance under 5× load: %+v", dec)
	}
	stay, err := ShouldRebalance(cur, []float64{1, 1, 1, 1}, 20, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stay.Redistribute {
		t.Fatal("rebalanced a balanced layout")
	}
	if _, err := ShouldRebalance(cur, []float64{1, -1, 1, 1}, 5, opts, 1); err == nil {
		t.Fatal("negative cycle-time accepted")
	}
}

// TestShouldRebalanceMeasuredLength is the regression test for the slice
// panic: a measured vector whose length does not match the p·q grid must be
// a clean error, never an out-of-range slice.
func TestShouldRebalanceMeasuredLength(t *testing.T) {
	cur, err := Uniform(2, 2, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Latency: 0.01, ByteTime: 1e-6, BlockBytes: 8192}
	for _, measured := range [][]float64{nil, {}, {1}, {1, 2, 3}, {1, 2, 3, 4, 5}} {
		if _, err := ShouldRebalance(cur, measured, 10, opts, 1); err == nil {
			t.Fatalf("%d measured times accepted for a 2×2 grid", len(measured))
		}
	}
}
