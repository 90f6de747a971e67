package adapt

import (
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

func policy() Policy {
	return Policy{
		Net:        sim.Config{Latency: 0.01, ByteTime: 1e-6},
		BlockBytes: 8192,
	}
}

// startLayout returns a uniform distribution on a 2×2 grid of equal-speed
// machines — the natural layout at job start on a dedicated machine.
func startLayout(t *testing.T, nb int) distribution.Distribution {
	t.Helper()
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The TestEvaluateMM tests evaluate an outer-product multiplication: region
// All, whose per-step bound is the same every step, with remaining steps
// [start, nb).

func TestEvaluateMMStaysWhenBalanced(t *testing.T) {
	// Speeds unchanged and uniform layout already optimal: stay.
	d := startLayout(t, 16)
	arr := grid.MustNew([][]float64{{1, 1}, {1, 1}})
	dec, err := EvaluateKernel(d, arr.Times(), distribution.All, 6, policy())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Redistribute {
		t.Fatalf("recommended redistribution on a balanced layout: %+v", dec)
	}
	if compute := dec.MoveCost - dec.RedistTime; compute != dec.StayCost {
		t.Fatalf("compute bounds differ on equal speeds: stay %v, candidate %v", dec.StayCost, compute)
	}
}

func TestEvaluateMMMovesUnderLoad(t *testing.T) {
	// One machine slows 5×: with plenty of work left, moving pays.
	d := startLayout(t, 24)
	arr := grid.MustNew([][]float64{{1, 1}, {1, 5}})
	dec, err := EvaluateKernel(d, arr.Times(), distribution.All, 0, policy())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Redistribute {
		t.Fatalf("should redistribute: %+v", dec)
	}
	if dec.NewDist == nil || dec.MovedBlocks == 0 {
		t.Fatal("no proposed distribution despite recommendation")
	}
	if compute := dec.MoveCost - dec.RedistTime; compute >= dec.StayCost {
		t.Fatalf("new layout not faster: %v vs %v", compute, dec.StayCost)
	}
	if dec.MoveCost >= dec.StayCost {
		t.Fatalf("move cost %v not below stay cost %v", dec.MoveCost, dec.StayCost)
	}
}

func TestEvaluateMMStaysNearTheEnd(t *testing.T) {
	// Same slowdown, but with almost no work left the redistribution can
	// never amortize (force it with an expensive network).
	d := startLayout(t, 24)
	arr := grid.MustNew([][]float64{{1, 1}, {1, 5}})
	pol := policy()
	pol.Net = sim.Config{Latency: 50, ByteTime: 1e-3}
	dec, err := EvaluateKernel(d, arr.Times(), distribution.All, 23, pol)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Redistribute {
		t.Fatalf("redistributed with 1 step left on a slow network: %+v", dec)
	}
	if dec.RedistTime <= 0 {
		t.Fatal("redistribution time should be positive")
	}
}

func TestEvaluateMMHysteresis(t *testing.T) {
	// A marginal gain must be suppressed by a high hysteresis factor.
	d := startLayout(t, 24)
	arr := grid.MustNew([][]float64{{1, 1}, {1, 1.3}})
	pol := policy()
	base, err := EvaluateKernel(d, arr.Times(), distribution.All, 12, pol)
	if err != nil {
		t.Fatal(err)
	}
	pol.Hysteresis = 3
	strict, err := EvaluateKernel(d, arr.Times(), distribution.All, 12, pol)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Redistribute {
		t.Fatalf("hysteresis 3 still moved (base move=%v)", base.Redistribute)
	}
}

func TestEvaluateMMValidation(t *testing.T) {
	d := startLayout(t, 8)
	for _, n := range []int{0, 1, 3, 5} {
		times := make([]float64, n)
		for i := range times {
			times[i] = 1
		}
		if _, err := EvaluateKernel(d, times, distribution.All, 3, policy()); err == nil {
			t.Fatalf("%d measured times accepted for a 2×2 grid", n)
		}
	}
	if _, err := EvaluateKernel(d, []float64{1, -1, 1, 1}, distribution.All, 3, policy()); err == nil {
		t.Fatal("negative cycle-time accepted")
	}
	if _, err := EvaluateKernel(d, grid.MustNew([][]float64{{1, 1}, {1, 1}}).Times(), distribution.All, 9, policy()); err == nil {
		t.Fatal("more remaining steps than the block matrix has accepted")
	}
	rect, err := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateKernel(rect, grid.MustNew([][]float64{{1, 1}, {1, 1}}).Times(), distribution.All, 0, policy()); err == nil {
		t.Fatal("rectangular block matrix accepted")
	}
}

func TestEvaluateMMZeroSteps(t *testing.T) {
	// No work left: never move.
	d := startLayout(t, 16)
	arr := grid.MustNew([][]float64{{1, 1}, {1, 9}})
	dec, err := EvaluateKernel(d, arr.Times(), distribution.All, 16, policy())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Redistribute {
		t.Fatal("moved with zero remaining work")
	}
	if dec.StayCost != 0 {
		t.Fatalf("stay cost %v with zero steps", dec.StayCost)
	}
}

func TestEvaluateMMDeterministic(t *testing.T) {
	d := startLayout(t, 24)
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	a, err := EvaluateKernel(d, arr.Times(), distribution.All, 14, policy())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateKernel(d, arr.Times(), distribution.All, 14, policy())
	if err != nil {
		t.Fatal(err)
	}
	if a.StayCost != b.StayCost || a.MoveCost != b.MoveCost || a.Redistribute != b.Redistribute {
		t.Fatal("decision not deterministic")
	}
}
