package hetgrid

import (
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// TestObservabilityPropertyRandomGrids runs 100 random heterogeneous grids
// through the real engine with spans and metrics on, and checks the
// measured load-balance observables against the paper's constraint shape:
// every rank's busy time is bounded by the slowest rank's (the scaled form
// of r_i·t_ij·c_j ≤ 1 — no processor exceeds the per-step budget the
// makespan normalizes to), the imbalance gauge is ≥ 1 whenever any work
// was measured, and both BusyTime and Imbalance agree exactly with a
// recomputation from the raw spans ExecStats carries.
func TestObservabilityPropertyRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const nb, r = 4, 2
	for run := 0; run < 100; run++ {
		p := 1 + rng.Intn(3)
		q := 1 + rng.Intn(3)
		times := make([]float64, p*q)
		for i := range times {
			times[i] = 0.5 + 3.5*rng.Float64()
		}
		plan, err := Balance(times, p, q, PlanHeuristic)
		if err != nil {
			t.Fatalf("run %d (%d×%d %v): %v", run, p, q, times, err)
		}
		d, err := KalinovLastovetsky(plan, nb, nb)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}

		reg := NewMetrics()
		opts := []Option{WithSpans(), WithMetrics(reg)}
		var stats *ExecStats
		n := nb * r
		switch run % 3 {
		case 0:
			a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
			_, stats, err = DistributedMultiply(d, a, b, r, opts...)
		case 1:
			_, stats, err = DistributedFactor(LU, d, matrix.RandomWellConditioned(n, rng), r, opts...)
		case 2:
			_, stats, err = DistributedFactor(Cholesky, d, matrix.RandomSPD(n, rng), r, opts...)
		}
		if err != nil {
			t.Fatalf("run %d (%d×%d): %v", run, p, q, err)
		}

		busy := stats.BusyTime
		if len(busy) != p*q {
			t.Fatalf("run %d: %d busy-time entries for %d ranks", run, len(busy), p*q)
		}
		maxBusy := 0.0
		for i, b := range busy {
			if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
				t.Fatalf("run %d: rank %d busy time %g", run, i, b)
			}
			maxBusy = math.Max(maxBusy, b)
		}
		// Scaled constraint shape: with the slowest rank as the unit budget,
		// every rank's measured load must fit inside it.
		for i, b := range busy {
			if b > maxBusy {
				t.Fatalf("run %d: rank %d load %g exceeds the budget %g", run, i, b, maxBusy)
			}
		}
		if maxBusy > 0 && stats.Imbalance < 1 {
			t.Fatalf("run %d: imbalance %g < 1 with work measured", run, stats.Imbalance)
		}

		// The gauge must be derivable from the raw spans alone: replay the
		// store's busy-time accumulation (same span order, same additions,
		// so the floats must match bit for bit).
		recomputed := make([]float64, p*q)
		for _, sp := range stats.Spans {
			if sp.Kind == obs.SpanCompute && sp.Rank >= 0 && sp.Rank < p*q {
				recomputed[sp.Rank] += sp.End - sp.Start
			}
		}
		for i := range recomputed {
			if recomputed[i] != busy[i] {
				t.Fatalf("run %d: rank %d BusyTime %g but spans recompute to %g", run, i, busy[i], recomputed[i])
			}
		}
		if want := obs.Imbalance(recomputed); stats.Imbalance != want {
			t.Fatalf("run %d: Imbalance %g, recomputed from spans %g", run, stats.Imbalance, want)
		}

		// And the published gauge must carry the same value.
		gauge := reg.Gauge("hetgrid_load_imbalance_ratio", "", "measured max/mean per-rank busy time of the last run (paper Obj1; 1 = perfect balance)")
		if got := gauge.Value(); got != stats.Imbalance {
			t.Fatalf("run %d: imbalance gauge %g, stats %g", run, got, stats.Imbalance)
		}
	}
}
