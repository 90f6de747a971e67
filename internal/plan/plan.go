// Package plan is the canonical planning pipeline of the repo: Solve
// turns a Request (cycle-times plus grid constraints) into a
// serializable Plan (arrangement, row/column shares, panel ordering,
// predicted objective, provenance). Every public planning surface —
// hetgrid.Balance, hetgrid.SolvePlan, adapt.ReplanSurvivors and the
// hetgridd service — is a thin adapter over
// this package, so the paper's strategy solvers have exactly one call
// path and every consumer (CLI, HTTP service, recovery path) speaks the
// same request/plan vocabulary.
//
// Plans are plain-JSON values: struct fields marshal in declaration
// order, and Go's float64 encoding is shortest-round-trip, so a Plan
// survives marshal → unmarshal → marshal byte-identically. That makes
// plans safe to cache, ship over HTTP, and diff in golden tests.
package plan

import (
	"fmt"

	"hetgrid/internal/distribution"
)

// Strategy names a balancing strategy. The string values double as the
// wire format of the hetgridd service and the CLI flag vocabulary.
type Strategy string

const (
	// StrategyAuto uses the rank-1 closed form when the sorted row-major
	// arrangement is rank-1 and the polynomial heuristic otherwise (or,
	// for fixed arrangements, one rank-1 approximation step).
	StrategyAuto Strategy = "auto"
	// StrategyHeuristic forces the §4.4 SVD heuristic with refinement.
	StrategyHeuristic Strategy = "heuristic"
	// StrategyExact forces the exponential search over
	// arrangements and spanning trees (§4.2–4.3); small grids only.
	StrategyExact Strategy = "exact"
)

// Kernel names the dense kernel a plan's panel ordering targets.
type Kernel string

const (
	MatMul   Kernel = "matmul"
	LU       Kernel = "lu"
	QR       Kernel = "qr"
	Cholesky Kernel = "cholesky"
)

// Region is the block region the kernel's step k is active on: the whole
// matrix for the outer product, the trailing submatrix (its lower triangle
// for Cholesky) for the factorizations.
func (k Kernel) Region() distribution.Region {
	switch k {
	case MatMul, "":
		return distribution.All
	case Cholesky:
		return distribution.TrailingLower
	default:
		return distribution.Trailing
	}
}

// PanelSpec asks the pipeline to realize the plan's shares as a concrete
// block panel (searched up to MaxBp×MaxBq for the most efficient integer
// rounding).
type PanelSpec struct {
	// MaxBp and MaxBq bound the best-panel search; 0 selects 4·max(P,Q),
	// the default every CLI has used.
	MaxBp int `json:"max_bp,omitempty"`
	MaxBq int `json:"max_bq,omitempty"`
	// CapBp and CapBq additionally clamp the search bounds — callers tiling
	// an nbr×nbc block matrix pass its dimensions so the panel never
	// exceeds the matrix. 0 means no clamp.
	CapBp int `json:"cap_bp,omitempty"`
	CapBq int `json:"cap_bq,omitempty"`
	// RowOrdering and ColOrdering override the kernel-derived panel
	// orderings ("contiguous" or "interleaved"); empty derives both from
	// the request's Kernel.
	RowOrdering string `json:"row_ordering,omitempty"`
	ColOrdering string `json:"col_ordering,omitempty"`
}

// parseOrdering maps an ordering name to the distribution enum; def is
// returned for the empty string.
func parseOrdering(s string, def distribution.Ordering) (distribution.Ordering, error) {
	switch s {
	case "":
		return def, nil
	case "contiguous":
		return distribution.Contiguous, nil
	case "interleaved":
		return distribution.Interleaved, nil
	default:
		return 0, fmt.Errorf("plan: unknown ordering %q (want contiguous or interleaved)", s)
	}
}

// Request is one planning problem. Exactly one of three modes applies:
//
//   - P,Q > 0, Fixed false: arrange Times on a p×q grid (hetgrid.Balance);
//   - P,Q > 0, Fixed true: Times are a row-major cycle-time matrix at
//     fixed grid positions;
//   - P = Q = 0: search grid shapes too (the survivor replanner).
type Request struct {
	// Times are the processor cycle-times (positive; only ratios matter).
	Times []float64 `json:"times"`
	// P and Q fix the grid shape; both zero selects the shape search.
	P int `json:"p,omitempty"`
	Q int `json:"q,omitempty"`
	// Fixed pins each cycle-time to its grid position (machines do not
	// move); requires P and Q.
	Fixed bool `json:"fixed,omitempty"`
	// Strategy selects the solver; empty means auto.
	Strategy Strategy `json:"strategy,omitempty"`
	// Kernel drives the panel ordering; empty means matmul.
	Kernel Kernel `json:"kernel,omitempty"`
	// AllowSubset lets the shape search leave the slowest machines out;
	// MinAspect constrains min(p,q)/max(p,q). Shape-search mode only.
	AllowSubset bool    `json:"allow_subset,omitempty"`
	MinAspect   float64 `json:"min_aspect,omitempty"`
	// Panel, when non-nil, realizes the shares as a block panel.
	Panel *PanelSpec `json:"panel,omitempty"`
	// Workers is the exact solver's search parallelism (0 = GOMAXPROCS).
	// It never changes the result, so it is not part of the wire format or
	// the cache key.
	Workers int `json:"-"`
}

// Validate checks the request's mode and inputs without solving.
func (r *Request) Validate() error {
	if len(r.Times) == 0 {
		return fmt.Errorf("plan: request needs at least one cycle-time")
	}
	for i, v := range r.Times {
		if !(v > 0) {
			return fmt.Errorf("plan: cycle-time %d is %v, want positive", i, v)
		}
	}
	if (r.P > 0) != (r.Q > 0) || r.P < 0 || r.Q < 0 {
		return fmt.Errorf("plan: grid shape %d×%d: give both p and q (or neither for the shape search)", r.P, r.Q)
	}
	if r.P > 0 && len(r.Times) != r.P*r.Q {
		return fmt.Errorf("plan: %d cycle-times cannot fill a %d×%d grid", len(r.Times), r.P, r.Q)
	}
	if r.Fixed && r.P == 0 {
		return fmt.Errorf("plan: a fixed arrangement needs explicit p and q")
	}
	if r.MinAspect < 0 || r.MinAspect > 1 {
		return fmt.Errorf("plan: min_aspect %v outside [0,1]", r.MinAspect)
	}
	if r.P > 0 && (r.AllowSubset || r.MinAspect != 0) {
		return fmt.Errorf("plan: allow_subset/min_aspect apply only to the shape search (p = q = 0)")
	}
	switch r.Strategy {
	case "", StrategyAuto, StrategyHeuristic, StrategyExact:
	default:
		return fmt.Errorf("plan: unknown strategy %q (want auto, heuristic or exact)", r.Strategy)
	}
	switch r.Kernel {
	case "", MatMul, LU, QR, Cholesky:
	default:
		return fmt.Errorf("plan: unknown kernel %q (want matmul, lu, qr or cholesky)", r.Kernel)
	}
	return nil
}

// SolverStats records the exact solver's search counters — provenance for
// how hard the plan was to find.
type SolverStats struct {
	Arrangements     int `json:"arrangements"`
	TreesVisited     int `json:"trees_visited"`
	TreesTheoretical int `json:"trees_theoretical"`
}

// Provenance records how a plan was produced.
type Provenance struct {
	// Strategy is the strategy that actually solved the problem (auto
	// requests record auto; the solver chosen underneath is visible from
	// Iterations/Solver).
	Strategy Strategy `json:"strategy"`
	// Mode is "balance", "arrangement" or "shape".
	Mode string `json:"mode"`
	// Iterations, Converged and Tau report the heuristic's refinement loop
	// (1/true/0 for rank-1 and exact solutions).
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Tau        float64 `json:"tau"`
	// Key is the quantized cache key the hetgridd service stores the plan
	// under; empty for plans that never passed through the quantizer.
	Key string `json:"key,omitempty"`
	// Solver carries the exact solver's search counters when it ran.
	Solver *SolverStats `json:"solver,omitempty"`
}

// PanelPlan is the serializable form of a realized block panel.
type PanelPlan struct {
	// Bp and Bq are the panel dimensions in blocks.
	Bp int `json:"bp"`
	Bq int `json:"bq"`
	// RowCounts[i] is the number of panel rows grid row i owns (summing to
	// Bp); ColCounts likewise for columns.
	RowCounts []int `json:"row_counts"`
	ColCounts []int `json:"col_counts"`
	// RowOrder[k] is the grid row owning the k-th panel row; ColOrder
	// likewise (e.g. the ABAABA interleaving for LU).
	RowOrder []int `json:"row_order"`
	ColOrder []int `json:"col_order"`
	// Efficiency is the integer-rounded balance quality in (0,1].
	Efficiency float64 `json:"efficiency"`
}

// Plan is the canonical, serializable outcome of a planning request: the
// paper's contribution as a value.
type Plan struct {
	// P and Q are the grid dimensions.
	P int `json:"p"`
	Q int `json:"q"`
	// Arrangement[i][j] is the cycle-time at grid position (i, j).
	Arrangement [][]float64 `json:"arrangement"`
	// RowShares and ColShares are the rational shares of matrix rows and
	// columns per grid row/column.
	RowShares []float64 `json:"row_shares"`
	ColShares []float64 `json:"col_shares"`
	// Objective is (Σr)(Σc), the blocks processed per time unit — the
	// paper's Obj1 prediction for this plan.
	Objective float64 `json:"objective"`
	// MeanWorkload is the average processor utilization (1 = perfect).
	MeanWorkload float64 `json:"mean_workload"`
	// Kernel the panel ordering targets (empty when no panel was built).
	Kernel Kernel `json:"kernel,omitempty"`
	// Selected indexes the input cycle-times placed on the grid, fastest
	// first; nil when all inputs were placed in request order. Candidates
	// is the number of (p, q, m) shapes the search evaluated.
	Selected   []int `json:"selected,omitempty"`
	Candidates int   `json:"candidates,omitempty"`
	// Panel is the realized block panel when the request asked for one.
	Panel *PanelPlan `json:"panel,omitempty"`
	// Provenance records strategy, convergence and solver statistics.
	Provenance Provenance `json:"provenance"`
}
