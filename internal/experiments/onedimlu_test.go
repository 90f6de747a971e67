package experiments

import (
	"strings"
	"testing"

	"hetgrid/internal/sim"
)

func TestRunOneDimLUComparison(t *testing.T) {
	net := sim.Config{Latency: 0.01, ByteTime: 1e-6}
	cmp, err := RunOneDimLUComparison([]float64{1, 2, 5}, 24, net, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 3 {
		t.Fatalf("%d rows", len(cmp.Rows))
	}
	rows := map[string]OneDimLURow{}
	for _, r := range cmp.Rows {
		rows[r.Policy] = r
	}
	cyc, ok1 := rows["cyclic"]
	opt, ok2 := rows["lu-optimal"]
	grd, ok3 := rows["static-greedy"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing policies")
	}
	// The LU-optimal analytic cost is minimal by construction.
	if opt.Cost > cyc.Cost+1e-9 || opt.Cost > grd.Cost+1e-9 {
		t.Fatalf("lu-optimal cost %v not minimal (cyclic %v, greedy %v)", opt.Cost, cyc.Cost, grd.Cost)
	}
	// End-to-end it must beat the blind cyclic assignment.
	if opt.Makespan >= cyc.Makespan {
		t.Fatalf("lu-optimal makespan %v not below cyclic %v", opt.Makespan, cyc.Makespan)
	}
	if !strings.Contains(cmp.Table(), "lu-optimal") {
		t.Fatal("table missing policy")
	}
	if !strings.HasPrefix(cmp.CSV(), "policy,") {
		t.Fatal("csv header missing")
	}
}

func TestRunOneDimLUComparisonHomogeneous(t *testing.T) {
	// Equal speeds: all three policies produce balanced counts; analytic
	// costs coincide.
	net := sim.Config{}
	cmp, err := RunOneDimLUComparison([]float64{1, 1, 1, 1}, 16, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := cmp.Rows[0].Cost
	for _, r := range cmp.Rows[1:] {
		if r.Cost != base {
			t.Fatalf("homogeneous costs differ: %+v", cmp.Rows)
		}
	}
}

func TestRunOneDimLUComparisonValidation(t *testing.T) {
	if _, err := RunOneDimLUComparison(nil, 8, sim.Config{}, 0); err == nil {
		t.Fatal("no processors accepted")
	}
	if _, err := RunOneDimLUComparison([]float64{1}, 0, sim.Config{}, 0); err == nil {
		t.Fatal("zero blocks accepted")
	}
}
