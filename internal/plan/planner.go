package plan

import (
	"fmt"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
)

// Result is a solved request: the serializable Plan plus the live internal
// objects adapters need to keep working without re-deriving anything (the
// core solution for hetgrid.Plan, the panel for distribution building, the
// raw shape-search and exact-solver records).
type Result struct {
	// Plan is the canonical serializable plan.
	Plan *Plan
	// Solution is the core solution the plan was rendered from.
	Solution *core.Solution
	// Panel is the realized block panel; nil unless the request asked.
	Panel *distribution.Panel
	// Shape is the shape-search record; nil outside shape-search mode.
	Shape *core.ShapeResult
	// ExactStats carries the exact solver's counters; nil otherwise.
	ExactStats *core.ExactStats
	// Iterations, Converged and Tau mirror Plan.Provenance for adapters.
	Iterations int
	Converged  bool
	Tau        float64
}

// Solve runs the planning pipeline on one request: validate → solve
// (strategy dispatch per mode) → realize panel → render the canonical plan.
// Safe for concurrent use.
func Solve(req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = StrategyAuto
	}

	var res *Result
	var err error
	switch {
	case req.P == 0:
		res, err = solveShape(req)
	case req.Fixed:
		res, err = solveArrangement(req, strategy)
	default:
		res, err = solveBalance(req, strategy)
	}
	if err != nil {
		return nil, err
	}
	if err := realizePanel(req, res); err != nil {
		return nil, err
	}
	renderPlan(req, strategy, res)
	return res, nil
}

// solveBalance handles the free-arrangement fixed-shape mode
// (hetgrid.Balance): the processors may be re-sorted onto the p×q grid.
func solveBalance(req Request, strategy Strategy) (*Result, error) {
	switch strategy {
	case StrategyAuto:
		if arr, err := grid.RowMajor(req.Times, req.P, req.Q); err == nil {
			if sol, ok := core.SolveRank1(arr, 0); ok {
				return &Result{Solution: sol, Iterations: 1, Converged: true}, nil
			}
		}
		return solveBalance(req, StrategyHeuristic)
	case StrategyHeuristic:
		hr, err := core.SolveHeuristic(req.Times, req.P, req.Q, core.HeuristicOptions{})
		if err != nil {
			return nil, err
		}
		return &Result{Solution: hr.Solution, Iterations: hr.Iterations, Converged: hr.Converged, Tau: hr.Tau}, nil
	case StrategyExact:
		sol, stats, err := core.SolveGlobalExactOpt(req.Times, req.P, req.Q,
			core.ExactOptions{Workers: req.Workers})
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol, ExactStats: stats, Iterations: 1, Converged: true}, nil
	default:
		return nil, fmt.Errorf("plan: unknown strategy %q", strategy)
	}
}

// solveArrangement handles the fixed-arrangement mode (Request.Fixed): the
// machines sit at given positions and
// only the shares are optimized — the §4.3 sub-problem.
func solveArrangement(req Request, strategy Strategy) (*Result, error) {
	rows := make([][]float64, req.P)
	for i := 0; i < req.P; i++ {
		rows[i] = req.Times[i*req.Q : (i+1)*req.Q]
	}
	arr, err := grid.New(rows)
	if err != nil {
		return nil, err
	}
	switch strategy {
	case StrategyExact:
		sol, stats, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{Workers: req.Workers})
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol, ExactStats: stats, Iterations: 1, Converged: true}, nil
	case StrategyAuto, StrategyHeuristic:
		if sol, ok := core.SolveRank1(arr, 0); ok {
			return &Result{Solution: sol, Iterations: 1, Converged: true}, nil
		}
		sol, err := core.RankOneStep(arr)
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol, Iterations: 1, Converged: true}, nil
	default:
		return nil, fmt.Errorf("plan: unknown strategy %q", strategy)
	}
}

// solveShape handles the free-shape mode (hetgrid.SolvePlan with no shape
// and the survivor replanner): pick p×q ≤ n, the participants, and the shares.
func solveShape(req Request) (*Result, error) {
	shape, err := core.ChooseShape(req.Times, core.ShapeOptions{
		AllowSubset: req.AllowSubset,
		MinAspect:   req.MinAspect,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Solution: shape.Solution, Shape: shape, Iterations: 1, Converged: true}, nil
}

// realizePanel rounds the shares into a concrete block panel when the
// request asks for one.
func realizePanel(req Request, res *Result) error {
	if req.Panel == nil {
		return nil
	}
	// The kernel is validated: its region decides the panel orderings.
	rowOrd, colOrd := req.Kernel.Region().Orderings()
	arr := res.Solution.Arr
	maxBp, maxBq := req.Panel.MaxBp, req.Panel.MaxBq
	if maxBp <= 0 || maxBq <= 0 {
		def := 4 * arr.P
		if 4*arr.Q > def {
			def = 4 * arr.Q
		}
		if maxBp <= 0 {
			maxBp = def
		}
		if maxBq <= 0 {
			maxBq = def
		}
	}
	if req.Panel.CapBp > 0 && maxBp > req.Panel.CapBp {
		maxBp = req.Panel.CapBp
	}
	if req.Panel.CapBq > 0 && maxBq > req.Panel.CapBq {
		maxBq = req.Panel.CapBq
	}
	pan, err := distribution.BestPanel(res.Solution, maxBp, maxBq, rowOrd, colOrd)
	if err != nil {
		return err
	}
	res.Panel = pan
	return nil
}

// renderPlan fills in the canonical serializable plan from the solved
// pieces. Slices are deep-copied: a Plan owns its data and can outlive the
// solver's internals (it may sit in a cache shared across requests).
func renderPlan(req Request, strategy Strategy, res *Result) {
	sol := res.Solution
	arrangement := make([][]float64, sol.Arr.P)
	for i, row := range sol.Arr.T {
		arrangement[i] = append([]float64(nil), row...)
	}
	mode := "balance"
	switch {
	case req.P == 0:
		mode = "shape"
	case req.Fixed:
		mode = "arrangement"
	}
	p := &Plan{
		P:            sol.Arr.P,
		Q:            sol.Arr.Q,
		Arrangement:  arrangement,
		RowShares:    append([]float64(nil), sol.R...),
		ColShares:    append([]float64(nil), sol.C...),
		Objective:    sol.Objective(),
		MeanWorkload: sol.MeanWorkload(),
		Provenance: Provenance{
			Strategy:   strategy,
			Mode:       mode,
			Iterations: res.Iterations,
			Converged:  res.Converged,
			Tau:        res.Tau,
		},
	}
	if req.Panel != nil {
		p.Kernel = req.Kernel
		if p.Kernel == "" {
			p.Kernel = MatMul
		}
	}
	if res.Shape != nil {
		p.Selected = append([]int(nil), res.Shape.Selected...)
		p.Candidates = res.Shape.Candidates
	}
	if res.Panel != nil {
		pan := res.Panel
		p.Panel = &PanelPlan{
			Bp:         pan.Bp,
			Bq:         pan.Bq,
			RowCounts:  append([]int(nil), pan.RowCounts...),
			ColCounts:  append([]int(nil), pan.ColCounts...),
			RowOrder:   append([]int(nil), pan.RowOrder...),
			ColOrder:   append([]int(nil), pan.ColOrder...),
			Efficiency: pan.PanelEfficiency(),
		}
	}
	if res.ExactStats != nil {
		s := res.ExactStats
		p.Provenance.Solver = &SolverStats{
			Arrangements:     s.Arrangements,
			TreesVisited:     s.TreesVisited,
			TreesTheoretical: s.TreesTheoretical,
		}
	}
	res.Plan = p
}
