package experiments

import (
	"strings"
	"testing"
)

func TestRunHeuristicSweepShapes(t *testing.T) {
	sweep, err := RunHeuristicSweep([]int{2, 3, 4}, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Sizes) != 3 || len(sweep.MeanWorkload) != 3 || len(sweep.Tau) != 3 || len(sweep.Iterations) != 3 {
		t.Fatalf("sweep shapes wrong: %+v", sweep)
	}
	for i := range sweep.Sizes {
		// Figure 6: the average workload stays high (the paper shows
		// ~0.8–0.95 over this range) and is a valid fraction.
		if sweep.MeanWorkload[i] <= 0.5 || sweep.MeanWorkload[i] > 1+1e-9 {
			t.Fatalf("n=%d: mean workload %v out of plausible range", sweep.Sizes[i], sweep.MeanWorkload[i])
		}
		// Figure 7: τ is a non-negative improvement.
		if sweep.Tau[i] < -1e-9 {
			t.Fatalf("n=%d: negative tau %v", sweep.Sizes[i], sweep.Tau[i])
		}
		// Figure 8: at least one step always happens.
		if sweep.Iterations[i] < 1 {
			t.Fatalf("n=%d: iterations %v < 1", sweep.Sizes[i], sweep.Iterations[i])
		}
	}
	// Figure 8's trend: iterations grow with n.
	if sweep.Iterations[2] <= sweep.Iterations[0] {
		t.Fatalf("iterations not growing: %v", sweep.Iterations)
	}
}

func TestRunHeuristicSweepDeterministic(t *testing.T) {
	a, err := RunHeuristicSweep([]int{3}, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHeuristicSweep([]int{3}, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanWorkload[0] != b.MeanWorkload[0] || a.Tau[0] != b.Tau[0] || a.Iterations[0] != b.Iterations[0] {
		t.Fatal("sweep not deterministic for equal seeds")
	}
}

func TestRunHeuristicSweepValidation(t *testing.T) {
	if _, err := RunHeuristicSweep([]int{2}, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := RunHeuristicSweep([]int{0}, 5, 1); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSweepRendering(t *testing.T) {
	sweep, err := RunHeuristicSweep([]int{2}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if table := sweep.Table(); !strings.Contains(table, "avg workload") {
		t.Fatalf("table missing header: %q", table)
	}
	csv := sweep.CSV()
	if !strings.HasPrefix(csv, "n,mean_workload,tau,iterations\n") {
		t.Fatalf("csv missing header: %q", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 2 {
		t.Fatalf("csv has %d lines, want 2", lines)
	}
	plot := AsciiPlot("fig", sweep.Sizes, sweep.MeanWorkload, 40)
	if !strings.Contains(plot, "fig") || !strings.Contains(plot, "#") {
		t.Fatalf("plot unexpected: %q", plot)
	}
}

func TestAsciiPlotZeroValues(t *testing.T) {
	plot := AsciiPlot("zeros", []int{1, 2}, []float64{0, 0}, 0)
	if !strings.Contains(plot, "zeros") {
		t.Fatal("plot missing title")
	}
}

func TestRunExactComparison(t *testing.T) {
	cmp, err := RunExactComparison(2, 2, 15, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Ratios) != 15 {
		t.Fatalf("%d ratios, want 15", len(cmp.Ratios))
	}
	for _, r := range cmp.Ratios {
		if r > 1+1e-9 {
			t.Fatalf("heuristic ratio %v exceeds 1 (beat the exact optimum?)", r)
		}
		if r < 0.5 {
			t.Fatalf("heuristic ratio %v implausibly poor", r)
		}
	}
	if cmp.WorstRatio > cmp.MeanRatio+1e-12 {
		t.Fatal("worst ratio above mean")
	}
	if !strings.Contains(cmp.Table(), "heuristic vs exact") {
		t.Fatal("table header missing")
	}
	if !strings.HasPrefix(cmp.CSV(), "trial,ratio\n") {
		t.Fatal("csv header missing")
	}
}

func TestRunExactComparisonValidation(t *testing.T) {
	if _, err := RunExactComparison(0, 2, 5, 1, 0); err == nil {
		t.Fatal("invalid grid accepted")
	}
	if _, err := RunExactComparison(2, 2, 0, 1, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestRunSimComparison(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.NB = 12
	cmp, err := RunSimComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 distributions × 3 kernel variants × 2 networks = 18 rows.
	if len(cmp.Rows) != 18 {
		t.Fatalf("%d rows, want 18", len(cmp.Rows))
	}
	// The headline result on every network and kernel: het-panel beats
	// uniform.
	for _, r := range cmp.Rows {
		if r.Distribution == "het-panel" && r.SpeedupVsUniform <= 1 {
			t.Fatalf("het-panel not faster than uniform: %+v", r)
		}
		if r.Makespan <= 0 || r.Efficiency <= 0 || r.Efficiency > 1+1e-9 {
			t.Fatalf("implausible row: %+v", r)
		}
	}
	if !strings.Contains(cmp.Table(), "het-panel") {
		t.Fatal("table missing het-panel")
	}
	if !strings.Contains(cmp.CSV(), "kernel,distribution") {
		t.Fatal("csv header missing")
	}
}

func TestRunSimComparisonValidation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Times = []float64{1, 2}
	if _, err := RunSimComparison(cfg); err == nil {
		t.Fatal("mismatched times accepted")
	}
}
