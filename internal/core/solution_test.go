package core

import (
	"math"
	"strings"
	"testing"

	"hetgrid/internal/grid"
)

func TestObjectiveAndWorkload(t *testing.T) {
	// The perfectly balanced Figure 1 solution.
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	s := &Solution{Arr: arr, R: []float64{1, 1.0 / 3}, C: []float64{1, 0.5}}
	if got := s.Objective(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("objective = %v, want 2", got)
	}
	b := s.Workload()
	for i := range b {
		for j := range b[i] {
			if math.Abs(b[i][j]-1) > 1e-12 {
				t.Fatalf("workload[%d][%d] = %v, want 1", i, j, b[i][j])
			}
		}
	}
	if got := s.MeanWorkload(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("mean workload = %v, want 1", got)
	}
	if got := s.maxWorkload(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("max workload = %v, want 1", got)
	}
	if !s.Feasible(0) {
		t.Fatal("perfect solution reported infeasible")
	}
	if got := s.NormalizedMakespan(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("normalized makespan = %v, want 1/2", got)
	}
}

func TestFeasibleTolerance(t *testing.T) {
	arr := grid.MustNew([][]float64{{1}}) // single processor
	s := &Solution{Arr: arr, R: []float64{1.1}, C: []float64{1}}
	if s.Feasible(0) {
		t.Fatal("overloaded solution reported feasible")
	}
	if !s.Feasible(0.2) {
		t.Fatal("tolerance not honoured")
	}
}

func TestCloneIndependent(t *testing.T) {
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	s := &Solution{Arr: arr, R: []float64{1, 1}, C: []float64{1, 1}}
	c := s.Clone()
	c.R[0] = 99
	if s.R[0] != 1 {
		t.Fatal("Clone shares R")
	}
}

func TestStringHasObjective(t *testing.T) {
	arr := grid.MustNew([][]float64{{1}}) // trivial
	s := &Solution{Arr: arr, R: []float64{1}, C: []float64{1}}
	if !strings.Contains(s.String(), "obj=1.0000") {
		t.Fatalf("String = %q", s.String())
	}
}
