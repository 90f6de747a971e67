package hetgrid

// Golden parity: testdata/golden_plans.json snapshots the planning
// outputs — fixed shape, fixed arrangement, free shape and
// adapt.ReplanSurvivors — over 50 seeded random grids as they were BEFORE
// planning was unified into internal/plan; Balance and SolvePlan re-solve
// them. Every float is stored as raw IEEE-754 bits, so the test
// pins the refactored pipeline bit for bit — any drift in solver dispatch,
// arrangement handling or panel rounding fails loudly.

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"hetgrid/internal/adapt"
	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
)

func bitsOf(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func bitsOfSlice(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = bitsOf(x)
	}
	return out
}

func bitsOfMatrix(m [][]float64) [][]string {
	out := make([][]string, len(m))
	for i, row := range m {
		out[i] = bitsOfSlice(row)
	}
	return out
}

type goldenCase struct {
	ID       int       `json:"id"`
	Mode     string    `json:"mode"`
	Times    []float64 `json:"times"`
	P        int       `json:"p,omitempty"`
	Q        int       `json:"q,omitempty"`
	Strategy string    `json:"strategy,omitempty"`
	Subset   bool      `json:"allow_subset,omitempty"`
	Aspect   float64   `json:"min_aspect,omitempty"`
	Nbr      int       `json:"nbr,omitempty"`
	Nbc      int       `json:"nbc,omitempty"`
	Kernel   string    `json:"kernel,omitempty"`

	Out goldenOut `json:"out"`
}

type goldenOut struct {
	P          int          `json:"p"`
	Q          int          `json:"q"`
	T          [][]string   `json:"t"`
	R          []string     `json:"r"`
	C          []string     `json:"c"`
	Objective  string       `json:"objective"`
	Iterations int          `json:"iterations,omitempty"`
	Converged  bool         `json:"converged,omitempty"`
	Tau        string       `json:"tau,omitempty"`
	Selected   []int        `json:"selected,omitempty"`
	Candidates int          `json:"candidates,omitempty"`
	Panel      *goldenPanel `json:"panel,omitempty"`
}

type goldenPanel struct {
	Bp        int   `json:"bp"`
	Bq        int   `json:"bq"`
	RowCounts []int `json:"row_counts"`
	ColCounts []int `json:"col_counts"`
	RowOrder  []int `json:"row_order"`
	ColOrder  []int `json:"col_order"`
}

func loadGoldenCases(t *testing.T) []goldenCase {
	t.Helper()
	blob, err := os.ReadFile("testdata/golden_plans.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Cases []goldenCase `json:"cases"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Cases) != 50 {
		t.Fatalf("golden file has %d cases, want 50", len(file.Cases))
	}
	return file.Cases
}

func checkPlanParity(t *testing.T, gc goldenCase, p *Plan) {
	t.Helper()
	arr := p.Arrangement()
	if arr.P != gc.Out.P || arr.Q != gc.Out.Q {
		t.Fatalf("case %d: grid %d×%d, golden %d×%d", gc.ID, arr.P, arr.Q, gc.Out.P, gc.Out.Q)
	}
	if got := bitsOfMatrix(arr.T); !reflect.DeepEqual(got, gc.Out.T) {
		t.Fatalf("case %d: arrangement drifted: %v vs %v", gc.ID, got, gc.Out.T)
	}
	if got := bitsOfSlice(p.RowShares()); !reflect.DeepEqual(got, gc.Out.R) {
		t.Fatalf("case %d: row shares drifted: %v vs %v", gc.ID, got, gc.Out.R)
	}
	if got := bitsOfSlice(p.ColShares()); !reflect.DeepEqual(got, gc.Out.C) {
		t.Fatalf("case %d: col shares drifted: %v vs %v", gc.ID, got, gc.Out.C)
	}
	if got := bitsOf(p.Objective()); got != gc.Out.Objective {
		t.Fatalf("case %d: objective drifted: %s vs %s", gc.ID, got, gc.Out.Objective)
	}
	if p.Iterations != gc.Out.Iterations || p.Converged != gc.Out.Converged {
		t.Fatalf("case %d: convergence record drifted: %d/%v vs %d/%v",
			gc.ID, p.Iterations, p.Converged, gc.Out.Iterations, gc.Out.Converged)
	}
	if got := bitsOf(p.Tau); gc.Out.Tau != "" && got != gc.Out.Tau {
		t.Fatalf("case %d: tau drifted: %s vs %s", gc.ID, got, gc.Out.Tau)
	}
}

// solveGolden re-solves one golden case through the public API: a plan for
// the balance mode (Balance) and the arrangement and choosegrid modes
// (SolvePlan, with the grid choice for choosegrid), a survivor plan for
// replan.
func solveGolden(t *testing.T, gc goldenCase) (*Plan, *GridChoice, *adapt.SurvivorPlan) {
	t.Helper()
	var (
		p      *Plan
		choice *GridChoice
		sp     *adapt.SurvivorPlan
		strat  PlanStrategy
		err    error
	)
	switch gc.Mode {
	case "balance":
		if strat, err = ParseStrategy(gc.Strategy); err == nil {
			p, err = Balance(gc.Times, gc.P, gc.Q, strat)
		}
	case "arrangement":
		if strat, err = ParseStrategy(gc.Strategy); err == nil {
			p, _, err = SolvePlan(PlanRequest{Times: gc.Times, P: gc.P, Q: gc.Q, Fixed: true, Strategy: strat})
		}
	case "choosegrid":
		var cp *CanonicalPlan
		p, cp, err = SolvePlan(PlanRequest{Times: gc.Times, AllowSubset: gc.Subset, MinAspect: gc.Aspect})
		if err == nil {
			choice = &GridChoice{P: cp.P, Q: cp.Q, Selected: cp.Selected, Candidates: cp.Candidates}
		}
	case "replan":
		sp, err = adapt.ReplanSurvivors(gc.Times, gc.Nbr, gc.Nbc, Kernel(gc.Kernel))
	default:
		t.Fatalf("case %d: unknown golden mode %q", gc.ID, gc.Mode)
	}
	if err != nil {
		t.Fatalf("case %d: %v", gc.ID, err)
	}
	return p, choice, sp
}

// TestGoldenPlanParity re-solves every golden case through the refactored
// public API (which now routes through internal/plan) and demands
// bit-identical plans.
func TestGoldenPlanParity(t *testing.T) {
	for _, gc := range loadGoldenCases(t) {
		p, choice, sp := solveGolden(t, gc)
		if sp == nil {
			checkPlanParity(t, gc, p)
			if choice != nil && (choice.P != gc.Out.P || choice.Q != gc.Out.Q ||
				!reflect.DeepEqual(choice.Selected, gc.Out.Selected) ||
				choice.Candidates != gc.Out.Candidates) {
				t.Fatalf("case %d: grid choice drifted: %+v vs %+v", gc.ID, choice, gc.Out)
			}
			continue
		}
		sol := sp.Shape.Solution
		if sp.P != gc.Out.P || sp.Q != gc.Out.Q {
			t.Fatalf("case %d: survivor grid %d×%d, golden %d×%d", gc.ID, sp.P, sp.Q, gc.Out.P, gc.Out.Q)
		}
		if !reflect.DeepEqual(sp.Selected, gc.Out.Selected) || sp.Shape.Candidates != gc.Out.Candidates {
			t.Fatalf("case %d: survivor selection drifted", gc.ID)
		}
		if got := bitsOfMatrix(sol.Arr.T); !reflect.DeepEqual(got, gc.Out.T) {
			t.Fatalf("case %d: survivor arrangement drifted", gc.ID)
		}
		if got := bitsOfSlice(sol.R); !reflect.DeepEqual(got, gc.Out.R) {
			t.Fatalf("case %d: survivor row shares drifted", gc.ID)
		}
		if got := bitsOfSlice(sol.C); !reflect.DeepEqual(got, gc.Out.C) {
			t.Fatalf("case %d: survivor col shares drifted", gc.ID)
		}
		if got := bitsOf(sol.Objective()); got != gc.Out.Objective {
			t.Fatalf("case %d: survivor objective drifted", gc.ID)
		}
		gp := gc.Out.Panel
		if gp == nil {
			t.Fatalf("case %d: golden replan case lacks a panel", gc.ID)
		}
		// The survivor distribution is a cyclic tiling of the panel;
		// parity of the panel geometry pins the whole distribution.
		got := survivorPanel(t, sp, gc)
		if !reflect.DeepEqual(got, gp) {
			t.Fatalf("case %d: survivor panel drifted: %+v vs %+v", gc.ID, got, gp)
		}
	}
}

// survivorPanel reads the panel geometry back out of the survivor
// distribution's owner maps (the panel repeats cyclically, so the first
// period is the panel).
func survivorPanel(t *testing.T, sp *adapt.SurvivorPlan, gc goldenCase) *goldenPanel {
	t.Helper()
	prod, ok := sp.Dist.(*distribution.Product)
	if !ok {
		t.Fatalf("case %d: survivor distribution is %T, want *distribution.Product", gc.ID, sp.Dist)
	}
	gp := gc.Out.Panel
	out := &goldenPanel{
		Bp:        gp.Bp,
		Bq:        gp.Bq,
		RowCounts: make([]int, sp.P),
		ColCounts: make([]int, sp.Q),
	}
	out.RowOrder = append([]int(nil), prod.RowOwner[:gp.Bp]...)
	out.ColOrder = append([]int(nil), prod.ColOwner[:gp.Bq]...)
	for _, r := range out.RowOrder {
		out.RowCounts[r]++
	}
	for _, c := range out.ColOrder {
		out.ColCounts[c]++
	}
	// Verify cyclicity: the owner maps must be the panel repeated.
	for i, r := range prod.RowOwner {
		if r != out.RowOrder[i%gp.Bp] {
			t.Fatalf("case %d: row owners not panel-cyclic at %d", gc.ID, i)
		}
	}
	for j, c := range prod.ColOwner {
		if c != out.ColOrder[j%gp.Bq] {
			t.Fatalf("case %d: col owners not panel-cyclic at %d", gc.ID, j)
		}
	}
	return out
}

// TestBestPanelMatchesExhaustive pins BestPanel, which rounds each panel
// dimension once and builds only the winner, to the search it replaced:
// build every candidate with NewPanel and keep the most efficient, ties to
// the smaller area.
func TestBestPanelMatchesExhaustive(t *testing.T) {
	orders := []distribution.Ordering{distribution.Contiguous, distribution.Interleaved}
	for _, gc := range loadGoldenCases(t) {
		p, _, sp := solveGolden(t, gc)
		var sol *core.Solution
		if sp != nil {
			sol = sp.Shape.Solution
		} else {
			sol = p.sol
		}
		for _, ro := range orders {
			for _, co := range orders {
				for _, limit := range []int{2, 4, 8, 16} {
					var want *distribution.Panel
					bestEff, bestArea := -1.0, 0
					for bp := len(sol.R); bp <= limit; bp++ {
						for bq := len(sol.C); bq <= limit; bq++ {
							cand, err := distribution.NewPanel(sol, bp, bq, ro, co)
							if err != nil {
								continue
							}
							eff := cand.PanelEfficiency()
							if eff > bestEff+1e-12 || (eff > bestEff-1e-12 && bp*bq < bestArea) {
								want, bestEff, bestArea = cand, eff, bp*bq
							}
						}
					}
					got, err := distribution.BestPanel(sol, limit, limit, ro, co)
					if (err != nil) != (want == nil) {
						t.Fatalf("case %d max %d order %d/%d: BestPanel err %v, exhaustive found %v", gc.ID, limit, ro, co, err, want != nil)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("case %d max %d order %d/%d: BestPanel %+v, exhaustive %+v", gc.ID, limit, ro, co, got, want)
					}
				}
			}
		}
	}
}
