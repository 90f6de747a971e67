package hetgrid

import (
	"math"
	"testing"
)

// fixedRequest asks SolvePlan to balance a fixed arrangement: the machines
// stay at the grid positions of rows (row-major) and only the shares are
// optimized — the §4.3 sub-problem.
func fixedRequest(rows [][]float64, s PlanStrategy) PlanRequest {
	req := PlanRequest{P: len(rows), Fixed: true, Strategy: s}
	for _, row := range rows {
		req.Q = len(row)
		req.Times = append(req.Times, row...)
	}
	return req
}

func TestBalanceArrangementExact(t *testing.T) {
	plan, _, err := SolvePlan(fixedRequest([][]float64{{1, 2}, {3, 5}}, PlanExact))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Objective()-2) > 1e-9 {
		t.Fatalf("objective %v, want 2", plan.Objective())
	}
	// The arrangement must be preserved verbatim (no re-sorting).
	arr := plan.Arrangement()
	if arr.T[1][1] != 5 || arr.T[0][1] != 2 {
		t.Fatalf("arrangement mutated:\n%s", arr)
	}
}

func TestBalanceArrangementHeuristic(t *testing.T) {
	plan, _, err := SolvePlan(fixedRequest([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, PlanHeuristic))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's first-step objective on this arrangement.
	if math.Abs(plan.Objective()-2.4322) > 5e-4 {
		t.Fatalf("objective %v, want 2.4322", plan.Objective())
	}
	if !plan.sol.Feasible(0) {
		t.Fatal("plan violates its load-balance constraints")
	}
}

func TestBalanceArrangementRank1FastPath(t *testing.T) {
	plan, _, err := SolvePlan(fixedRequest([][]float64{{1, 2}, {3, 6}}, PlanAuto))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("rank-1 arrangement mean workload %v", plan.MeanWorkload())
	}
}

func TestBalanceArrangementKeepsMachinePositions(t *testing.T) {
	// A deliberately non-sorted arrangement (fast machine bottom-right)
	// must stay where it is — the point of a fixed-arrangement request.
	rows := [][]float64{{5, 3}, {2, 1}}
	plan, _, err := SolvePlan(fixedRequest(rows, PlanExact))
	if err != nil {
		t.Fatal(err)
	}
	arr := plan.Arrangement()
	for i := range rows {
		for j := range rows[i] {
			if arr.T[i][j] != rows[i][j] {
				t.Fatalf("position (%d,%d) changed", i, j)
			}
		}
	}
	// And the free Balance (which may re-sort) does at least as well.
	free, err := Balance([]float64{5, 3, 2, 1}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective() > free.Objective()+1e-9 {
		t.Fatal("fixed arrangement beat the free optimum")
	}
}

func TestBalanceArrangementErrors(t *testing.T) {
	for name, req := range map[string]PlanRequest{
		"empty":         fixedRequest(nil, PlanExact),
		"ragged":        fixedRequest([][]float64{{1, 2}, {3}}, PlanExact),
		"negative":      fixedRequest([][]float64{{1, -2}}, PlanExact),
		"bad strategy":  fixedRequest([][]float64{{1, 2}}, "simplex"),
		"shape omitted": {Times: []float64{1, 2}, Fixed: true},
	} {
		if _, _, err := SolvePlan(req); err == nil {
			t.Errorf("%s: fixed-arrangement request %+v accepted", name, req)
		}
	}
}
