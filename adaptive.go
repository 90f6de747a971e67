package hetgrid

import (
	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
)

// RebalanceDecision reports whether a running computation should move to a
// re-balanced layout (see ShouldRebalance).
type RebalanceDecision = adapt.Decision

// MovePlan is the set of block transfers turning one distribution into
// another.
type MovePlan = distribution.RedistPlan

// CommVolume is a closed-form communication estimate (messages and bytes)
// for a full kernel run under a distribution; it matches the simulator's
// traffic counters exactly.
type CommVolume = distribution.CommVolume

// ShouldRebalance evaluates whether an in-flight outer-product
// multiplication should redistribute onto a layout recomputed for freshly
// measured cycle-times. measured lists the p·q effective cycle-times in
// grid row-major order (the machines stay at their grid positions — only
// the block shares change). remainingSteps is the number of outer-product
// steps left; hysteresis ≥ 1 demands a proportionally larger projected
// saving before moving (1 accepts any saving).
func ShouldRebalance(cur Distribution, measured []float64, remainingSteps int, opts SimOptions, hysteresis float64) (*RebalanceDecision, error) {
	return adapt.EvaluateMM(cur, measured, remainingSteps, adapt.Policy{
		Net:        opts.net(),
		BlockBytes: opts.BlockBytes,
		Hysteresis: hysteresis,
	})
}

// PlanMoves computes the block transfers needed to change ownership from
// one distribution to another over the same block matrix and grid.
func PlanMoves(from, to Distribution) (*MovePlan, error) {
	return distribution.PlanRedistribution(from, to)
}

// ValidateDistribution checks a user-implemented Distribution for the
// invariants the kernels rely on (owners inside the grid, positive
// dimensions). Built-in distributions always pass.
func ValidateDistribution(d Distribution) error {
	return distribution.Validate(d)
}

// CommVolumeOf returns the analytic communication volume of a full kernel
// run under d: exact for MatMul, LU and Cholesky (the engine's flat-
// broadcast counters and the simulator's counters equal it). QR is charged
// LU's volume — the approximation its simulation uses too.
func CommVolumeOf(k Kernel, d Distribution, blockBytes float64) (*CommVolume, error) {
	switch k {
	case MatMul:
		return distribution.MMCommVolume(d, blockBytes)
	case Cholesky:
		return distribution.CholeskyCommVolume(d, blockBytes)
	default:
		return distribution.LUCommVolume(d, blockBytes)
	}
}
