package hetgrid

import "hetgrid/internal/adapt"

// RebalanceDecision reports whether a running computation should move to a
// re-balanced layout (see ShouldRebalance).
type RebalanceDecision = adapt.Decision

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
