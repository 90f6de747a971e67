package hetgrid

import (
	"fmt"

	"hetgrid/internal/plan"
)

// PlanRequest is the canonical planning request of the internal/plan
// pipeline — the one vocabulary every planning surface speaks: Balance
// (fixed shape), SolvePlan (fixed shape, fixed arrangement or free shape),
// the survivor replanner, the CLIs, and the hetgridd service's POST
// /v1/plan body.
type PlanRequest = plan.Request

// CanonicalPlan is the serializable plan the pipeline produces:
// arrangement, shares, panel ordering, predicted Obj1 and provenance. Its
// JSON form is stable (declaration-order fields, shortest-round-trip
// floats), so it can be cached, diffed and shipped over the wire.
type CanonicalPlan = plan.Plan

// PanelSpec asks the pipeline to realize a plan's shares as a concrete
// block panel (see PlanRequest.Panel).
type PanelSpec = plan.PanelSpec

// PlanStrategy and PlanKernel are the pipeline's string-valued enums; use
// CanonicalStrategy to convert this package's Strategy constants.
type PlanStrategy = plan.Strategy
type PlanKernel = plan.Kernel

// The pipeline's strategy vocabulary, re-exported for request literals.
const (
	PlanAuto      PlanStrategy = plan.StrategyAuto
	PlanHeuristic PlanStrategy = plan.StrategyHeuristic
	PlanExact     PlanStrategy = plan.StrategyExact
)

// CanonicalStrategy maps a Strategy constant to the pipeline's string
// vocabulary ("auto", "heuristic", "exact").
func CanonicalStrategy(s Strategy) (PlanStrategy, error) { return s.canonical() }

// canonicalKernel maps a Kernel constant to the pipeline's string
// vocabulary ("matmul", "lu", "qr", "cholesky").
func canonicalKernel(k Kernel) (PlanKernel, error) {
	switch k {
	case MatMul, LU, QR, Cholesky:
		return plan.Kernel(k.String()), nil
	default:
		return "", fmt.Errorf("hetgrid: unknown kernel %v", k)
	}
}

// SolvePlan runs the canonical planning pipeline on req and returns both
// the solved Plan (ready for Panel/BestPanel/Simulate) and its canonical
// serializable form. It is the one entry point the CLIs and services build
// on, for each of the pipeline's modes: a fixed p×q shape, a fixed
// arrangement (Fixed: the machines keep their grid positions and only the
// shares are optimized, §4.3; the heuristic and auto strategies run one
// rank-1 approximation step, since re-sorting would move the machines)
// and the free shape search (P = Q = 0, §4.1: the grid shape, the
// participants and the shares; CanonicalPlan's Selected and Candidates
// report the search). Balance is the fixed-shape shorthand. Options that
// apply: WithWorkers (exact search parallelism), WithMetrics (exact solver
// counters).
func SolvePlan(req PlanRequest, opts ...Option) (*Plan, *CanonicalPlan, error) {
	bo := applyOptions(opts).balance
	if req.Workers == 0 {
		req.Workers = bo.Workers
	}
	res, err := plan.Solve(req)
	if err != nil {
		return nil, nil, err
	}
	publishExactStats(bo.Metrics, res.ExactStats)
	p := &Plan{sol: res.Solution, Iterations: res.Iterations, Converged: res.Converged, Tau: res.Tau}
	return p, res.Plan, nil
}
