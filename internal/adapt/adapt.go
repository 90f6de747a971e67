// Package adapt decides when a running computation on a non-dedicated
// parallel machine should re-balance. The paper's §2.2 observes that a
// multi-user machine behaves like a heterogeneous network whose effective
// speeds change with external load; its static strategies assume the speeds
// measured at start-up. This package closes the loop: given the current
// distribution, freshly measured cycle-times and the amount of work left,
// it weighs the cost of redistributing the blocks against the projected
// savings and recommends whether to move.
//
// The model is deliberately simple and conservative: per-step cost under a
// distribution is the compute bound max_n(count_n·t_n) (communication
// overlaps in the pipelined kernels), and redistribution cost is obtained
// by scheduling the aggregated block moves on the simulated network. A
// hysteresis factor guards against thrashing when the projected gain is
// marginal.
package adapt

import (
	"fmt"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/plan"
	"hetgrid/internal/sim"
)

// Policy configures the re-balancing decision.
type Policy struct {
	// Net and BlockBytes describe the fabric for redistribution cost.
	Net        sim.Config
	BlockBytes float64
	// Hysteresis is the minimum ratio of stay-cost to move-cost required
	// to recommend moving (e.g. 1.1 demands a 10% projected saving;
	// values ≤ 1 default to 1).
	Hysteresis float64
}

// Decision is the outcome of an evaluation.
type Decision struct {
	// Redistribute is the recommendation.
	Redistribute bool
	// StayCost is the projected remaining time with the current layout;
	// MoveCost is redistribution time plus the projected remaining time
	// with the proposed layout.
	StayCost, MoveCost float64
	// RedistTime and MovedBlocks describe the proposed redistribution.
	RedistTime  float64
	MovedBlocks int
	// NewDist is the proposed distribution (nil when staying put and no
	// better layout exists).
	NewDist distribution.Distribution
}

// EvaluateKernel decides whether a kernel working on region w with steps
// [startStep, nb) left should migrate onto a layout recomputed for the
// newly measured cycle-times (row-major grid order). Stay-cost and
// move-cost are sums of per-step compute bounds over the remaining region
// (for multiplication, region All, the bound is the same every step). The
// shares are re-balanced for the fixed arrangement — grid positions are
// fixed, machines do not move — and realized as the best panel under the
// region's orderings (searched up to 4·max(p, q), clamped to the block
// matrix); the block moves onto it are priced on the simulated network,
// and moving is recommended when the stay-cost exceeds the move-cost by
// the hysteresis.
func EvaluateKernel(cur distribution.Distribution, times []float64, w distribution.Region, startStep int, pol Policy) (*Decision, error) {
	nb, _ := cur.Blocks()
	if startStep < 0 || startStep > nb {
		return nil, fmt.Errorf("adapt: start step %d outside [0,%d]", startStep, nb)
	}
	p, q := cur.Dims()
	if len(times) != p*q {
		return nil, fmt.Errorf("adapt: %d measured cycle-times for a %d×%d grid", len(times), p, q)
	}
	rows := make([][]float64, p)
	for i := range rows {
		rows[i] = times[i*q : (i+1)*q]
	}
	newTimes, err := grid.New(rows)
	if err != nil {
		return nil, err
	}
	curLay, err := distribution.NewLayout(cur)
	if err != nil {
		return nil, err
	}
	hys := max(pol.Hysteresis, 1)
	maxPanel := min(4*max(p, q), curLay.NB)

	sol, err := core.RankOneStep(newTimes)
	if err != nil {
		return nil, err
	}
	rowOrd, colOrd := w.Orderings()
	pan, err := distribution.BestPanel(sol, maxPanel, maxPanel, rowOrd, colOrd)
	if err != nil {
		return nil, err
	}
	cand, err := pan.Distribution(curLay.NB, curLay.NB)
	if err != nil {
		return nil, err
	}
	candLay, err := distribution.NewLayout(cand)
	if err != nil {
		return nil, err
	}
	plan, err := distribution.PlanRedistribution(cur, cand)
	if err != nil {
		return nil, err
	}

	dec := &Decision{MovedBlocks: plan.BlockCount()}
	dec.StayCost = spanCost(curLay, newTimes, w, startStep, nb)
	if dec.RedistTime, err = simulateMoves(plan, p*q, pol); err != nil {
		return nil, err
	}
	dec.MoveCost = dec.RedistTime + spanCost(candLay, newTimes, w, startStep, nb)
	if dec.MoveCost*hys < dec.StayCost && dec.MovedBlocks > 0 {
		dec.Redistribute = true
		dec.NewDist = cand
	}
	return dec, nil
}

// SurvivorPlan is a replacement layout for the processors that outlived a
// rank failure: a freshly chosen grid shape over the survivors' cycle-times
// and a block distribution for the same block matrix.
type SurvivorPlan struct {
	// P and Q are the new grid dimensions (P·Q ≤ number of survivors).
	P, Q int
	// Selected indexes into the survivor cycle-times: which survivors are
	// placed on the new grid, fastest first (row-major grid order).
	Selected []int
	// Dist is the new distribution of the unchanged block matrix.
	Dist distribution.Distribution
	// Shape is the underlying shape-search result (shares, objective).
	Shape *core.ShapeResult
}

// ReplanSurvivors picks a fresh grid shape and block distribution for the
// survivors of a rank failure. times are the survivors' cycle-times (any
// positive units — only ratios matter); the block matrix keeps its nbr×nbc
// tiling, redistributed under kernel k's panel orderings. Subset grids are
// allowed so a prime survivor count still yields a plan. The shape search,
// balancing and panel realization all run through the canonical
// internal/plan pipeline.
func ReplanSurvivors(times []float64, nbr, nbc int, k plan.Kernel) (*SurvivorPlan, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("adapt: no survivors to replan onto")
	}
	res, err := plan.Solve(plan.Request{
		Times:       times,
		Kernel:      k,
		AllowSubset: true,
		Panel:       &plan.PanelSpec{CapBp: nbr, CapBq: nbc},
	})
	if err != nil {
		return nil, err
	}
	shape := res.Shape
	dist, err := res.Panel.Distribution(nbr, nbc)
	if err != nil {
		return nil, err
	}
	return &SurvivorPlan{
		P:        shape.P,
		Q:        shape.Q,
		Selected: shape.Selected,
		Dist:     dist,
		Shape:    shape,
	}, nil
}

// simulateMoves schedules the plan's aggregated pair messages on the
// simulated network and returns the completion time.
func simulateMoves(plan *distribution.RedistPlan, nodes int, pol Policy) (float64, error) {
	if plan.BlockCount() == 0 {
		return 0, nil
	}
	c, err := sim.NewCluster(nodes, pol.Net)
	if err != nil {
		return 0, err
	}
	for _, pr := range plan.Pairs() {
		c.Send(pr.Src, pr.Dst, float64(pr.Count)*pol.BlockBytes, 0)
	}
	return c.Makespan(), nil
}
