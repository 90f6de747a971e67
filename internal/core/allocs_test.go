package core

import "testing"

// TestPlannerAllocations pins the heap allocations of plan-cold's solver
// calls on the benchmark's fixed problems: a 3×3 heuristic, the shape
// search over 16 processors with subsets (50 heuristic solves on shared
// scratch) and the serial global exact search on a 3×3 (42 arrangements,
// copied into arrangements the worker hands back). Before the scratch was
// shared and the arrangements recycled they read 50, 2,063 and 721. The
// exact row's bound leaves room for the producer to allocate one copy per
// queue slot and spent slot more when the worker lags behind it.
func TestPlannerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	t9, t16 := randomTimes(9, 11), randomTimes(16, 13)
	pins := []struct {
		name string
		max  float64
		run  func()
	}{
		{"SolveHeuristic 3x3", 23, func() { SolveHeuristic(t9, 3, 3, HeuristicOptions{}) }},
		{"ChooseShape 16", 620, func() { ChooseShape(t16, ShapeOptions{AllowSubset: true}) }},
		{"SolveGlobalExact 3x3", 103 + 3*(4+6), func() { SolveGlobalExact(t9, 3, 3) }},
	}
	for _, pin := range pins {
		if got := testing.AllocsPerRun(20, pin.run); got > pin.max {
			t.Errorf("%s: %v allocations per call, pinned at %v", pin.name, got, pin.max)
		}
	}
}
