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

func TestPlanMovesFacade(t *testing.T) {
	a, err := Uniform(2, 2, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanMoves(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BlockCount() != 0 {
		t.Fatal("identity plan not empty")
	}
}

func TestCommVolumeOfFacade(t *testing.T) {
	d, err := Uniform(2, 2, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := CommVolumeOf(MatMul, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := CommVolumeOf(LU, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Messages <= 0 || lu.Messages <= 0 {
		t.Fatalf("volumes empty: mm=%+v lu=%+v", mm, lu)
	}
	// Sanity: the MM run touches the whole matrix every step, LU shrinks —
	// MM moves more bytes on the same layout.
	if mm.Bytes <= lu.Bytes {
		t.Fatalf("MM bytes %v not above LU bytes %v", mm.Bytes, lu.Bytes)
	}
	// Cholesky has its own schedule (no U panel, lower triangle only): it
	// must not be charged LU's volume. QR keeps the LU approximation.
	chol, err := CommVolumeOf(Cholesky, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if chol.Messages <= 0 || chol.Bytes >= lu.Bytes {
		t.Fatalf("Cholesky volume %+v not below LU's %+v", chol, lu)
	}
	qr, err := CommVolumeOf(QR, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if *qr != *lu {
		t.Fatalf("QR volume %+v differs from LU's %+v", qr, lu)
	}
}
