// Package hetgrid implements the load-balancing strategies of Beaumont,
// Boudet, Rastello and Robert, "Load Balancing Strategies for Dense Linear
// Algebra Kernels on Heterogeneous Two-dimensional Grids" (IPPS 2000): it
// arranges processors of different speeds on a virtual 2D grid, computes
// the row/column shares that balance a blocked matrix multiplication or
// LU/QR factorization, builds the block-panel data distribution that
// realizes those shares while preserving the ScaLAPACK grid communication
// pattern, and evaluates the result on a simulated heterogeneous network of
// workstations.
//
// # Quick start
//
//	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanAuto)
//	layout, err := plan.BestPanel(12, 12, hetgrid.MatMul)
//	dist, err := layout.Distribute(24, 24) // 24×24 block matrix
//	res, err := hetgrid.Simulate(hetgrid.MatMul, dist, plan, hetgrid.SimOptions{})
//
// The internal packages (core, distribution, kernels, sim, …) hold the full
// machinery; this package is the stable entry point and re-exports the
// types a user needs through aliases.
package hetgrid

import (
	"fmt"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
	"hetgrid/internal/sim"
)

// Matrix is a dense row-major matrix of float64 (see internal/matrix for
// the full method set: element access, views, norms, comparison). The
// factorizations are Factor and DistributedFactor.
type Matrix = matrix.Dense

// Arrangement is a p×q placement of processor cycle-times on the grid.
type Arrangement = grid.Arrangement

// Distribution maps matrix blocks to grid processors.
type Distribution = distribution.Distribution

// SimStats aliases the simulator's statistics record.
type SimStats = sim.Stats

// Kernel identifies a dense linear algebra kernel. It is the planning
// pipeline's string enum: the names are the CLI flags and hetgridd's wire
// format, and every entry point rejects a value outside the four below.
type Kernel = plan.Kernel

const (
	// MatMul is the blocked outer-product matrix multiplication C = A·B.
	MatMul = plan.MatMul
	// LU is the right-looking blocked LU decomposition.
	LU = plan.LU
	// QR is the blocked Householder QR. Executions run its own step
	// schedule (the panel factored at its master, each trailing column's
	// Vᵀ·B chained down its owners); only the simulator prices it as LU
	// with a costlier panel.
	QR = plan.QR
	// Cholesky is the right-looking blocked Cholesky factorization
	// A = L·Lᵀ, the third ScaLAPACK factorization alongside LU and QR.
	Cholesky = plan.Cholesky
)

// Plan is a solved load-balancing problem: an arrangement plus the
// row/column shares that minimize the normalized makespan.
type Plan struct {
	sol *core.Solution
	// Iterations and Converged report the heuristic's refinement loop
	// (1/true for rank-1 and exact solutions).
	Iterations int
	Converged  bool
	// Tau is the refinement gain (objective after convergence over the
	// first step, minus 1); zero for non-heuristic strategies.
	Tau float64
}

// balanceOptions tunes how Balance and SolvePlan solve the load-balancing
// problem. The zero value selects the defaults.
type balanceOptions struct {
	// Workers is the number of worker goroutines the exact strategy uses
	// for its search (0 selects GOMAXPROCS). The result is bit-identical
	// for every worker count, 1 included.
	// Ignored by the heuristic and rank-1 strategies, which are already
	// polynomial.
	Workers int
	// Metrics, when non-nil, receives the exact solver's search counters
	// (arrangements searched, spanning trees visited/theoretical) as
	// Prometheus series after the solve. Ignored by the polynomial
	// strategies, which have no search to account for.
	Metrics *Metrics
}

// publishExactStats mirrors an exact solve's search counters into the
// registry — the solver's contribution to the observability layer.
func publishExactStats(reg *Metrics, stats *core.ExactStats) {
	if reg == nil || stats == nil {
		return
	}
	reg.Counter("hetgrid_exact_arrangements_total", "", "non-decreasing arrangements examined by the exact solver").Add(int64(stats.Arrangements))
	reg.Counter("hetgrid_exact_trees_visited_total", "", "acceptable spanning trees visited by the exact solver").Add(int64(stats.TreesVisited))
	reg.Counter("hetgrid_exact_trees_theoretical_total", "", "spanning trees a search over every tree would have generated").Add(int64(stats.TreesTheoretical))
}

// Balance arranges the given cycle-times on a p×q grid and computes the
// load-balancing shares with the chosen strategy. len(times) must equal
// p·q and every cycle-time must be positive. It is SolvePlan's fixed-shape
// request; the same options apply.
func Balance(times []float64, p, q int, strategy PlanStrategy, options ...Option) (*Plan, error) {
	solved, _, err := SolvePlan(PlanRequest{Times: times, P: p, Q: q, Strategy: strategy}, options...)
	return solved, err
}

// Arrangement returns the plan's processor arrangement.
func (p *Plan) Arrangement() *Arrangement { return p.sol.Arr }

// RowShares returns the rational share of matrix rows per grid row.
func (p *Plan) RowShares() []float64 { return append([]float64(nil), p.sol.R...) }

// ColShares returns the rational share of matrix columns per grid column.
func (p *Plan) ColShares() []float64 { return append([]float64(nil), p.sol.C...) }

// Objective returns (Σr)(Σc), the blocks processed per time unit.
func (p *Plan) Objective() float64 { return p.sol.Objective() }

// MeanWorkload returns the average processor utilization (1 = perfect).
func (p *Plan) MeanWorkload() float64 { return p.sol.MeanWorkload() }

// Workload returns the utilization matrix B with B[i][j] = r_i·t_ij·c_j.
func (p *Plan) Workload() [][]float64 { return p.sol.Workload() }

// Layout is a concrete block panel realizing a plan's shares.
type Layout struct {
	panel *distribution.Panel
}

// orderings returns the panel orderings suited to the kernel: order is
// irrelevant for the outer-product multiplication, and the 1D-greedy
// interleaving keeps LU/QR balanced as the active matrix shrinks (§3.2.2).
func orderings(k Kernel) (distribution.Ordering, distribution.Ordering, error) {
	switch k {
	case MatMul, LU, QR, Cholesky:
	default:
		return 0, 0, fmt.Errorf("hetgrid: unknown kernel %q", k)
	}
	row, col := k.Region().Orderings()
	return row, col, nil
}

// Panel builds a bp×bq block panel for the kernel.
func (p *Plan) Panel(bp, bq int, k Kernel) (*Layout, error) {
	rowOrd, colOrd, err := orderings(k)
	if err != nil {
		return nil, err
	}
	pan, err := distribution.NewPanel(p.sol, bp, bq, rowOrd, colOrd)
	if err != nil {
		return nil, err
	}
	return &Layout{panel: pan}, nil
}

// BestPanel searches panel sizes up to maxBp×maxBq for the most efficient
// integer realization of the plan's shares.
func (p *Plan) BestPanel(maxBp, maxBq int, k Kernel) (*Layout, error) {
	rowOrd, colOrd, err := orderings(k)
	if err != nil {
		return nil, err
	}
	pan, err := distribution.BestPanel(p.sol, maxBp, maxBq, rowOrd, colOrd)
	if err != nil {
		return nil, err
	}
	return &Layout{panel: pan}, nil
}

// Size returns the panel dimensions in blocks.
func (l *Layout) Size() (bp, bq int) { return l.panel.Bp, l.panel.Bq }

// RowCounts returns the panel rows owned by each grid row.
func (l *Layout) RowCounts() []int { return append([]int(nil), l.panel.RowCounts...) }

// ColCounts returns the panel columns owned by each grid column.
func (l *Layout) ColCounts() []int { return append([]int(nil), l.panel.ColCounts...) }

// ColOrder returns the grid column owning each panel column, in order
// (e.g. the ABAABA interleaving for LU layouts).
func (l *Layout) ColOrder() []int { return append([]int(nil), l.panel.ColOrder...) }

// Efficiency returns the panel's integer-rounded balance quality in (0,1].
func (l *Layout) Efficiency() float64 { return l.panel.PanelEfficiency() }

// Distribute tiles an nbr×nbc block matrix with the panel.
func (l *Layout) Distribute(nbr, nbc int) (Distribution, error) {
	return l.panel.Distribution(nbr, nbc)
}

// Uniform returns the homogeneous ScaLAPACK block-cyclic distribution — the
// baseline that ignores processor speeds.
func Uniform(p, q, nbr, nbc int) (Distribution, error) {
	return distribution.UniformBlockCyclic(p, q, nbr, nbc)
}

// KalinovLastovetsky returns the heterogeneous block-cyclic distribution of
// Kalinov and Lastovetsky for the plan's arrangement — well balanced, but
// it breaks the grid communication pattern (see NeighborReport).
func KalinovLastovetsky(p *Plan, nbr, nbc int) (Distribution, error) {
	return distribution.NewKL(p.sol.Arr, nbr, nbc)
}

// NeighborReport describes the communication pattern a distribution
// induces; GridPattern is true when every processor talks only to its four
// direct grid neighbours (§3.1.2).
type NeighborReport = distribution.NeighborStats

// Neighbors analyses the communication pattern of a distribution.
func Neighbors(d Distribution) *NeighborReport {
	return distribution.ComputeNeighborStats(d)
}

// SimOptions configures kernel simulation on the virtual HNOW.
type SimOptions struct {
	// Latency and ByteTime parameterize the network (per message, per
	// byte); SharedBus selects the Ethernet-style serialized fabric, and
	// FullDuplex gives nodes independent send/receive channels.
	Latency, ByteTime float64
	SharedBus         bool
	FullDuplex        bool
	// BlockBytes is the size of one r×r block message (8·r² for float64).
	BlockBytes float64
	// SyncSteps inserts a global barrier between outer-product steps.
	SyncSteps bool
	// Pivoting charges the LU/QR simulations for partial pivoting (pivot
	// search reduction plus worst-case row exchange per step).
	Pivoting bool
	// Broadcast selects the collective algorithm the simulated kernels
	// schedule; the zero value is the flat broadcast, as in real
	// executions. The same enum drives real executions through
	// WithBroadcast, so both substrates can run the identical schedule.
	Broadcast BroadcastKind
}

// SimResult reports one simulated kernel execution.
type SimResult = kernels.Result

// net is the simulator fabric the options describe.
func (o SimOptions) net() sim.Config {
	return sim.Config{Latency: o.Latency, ByteTime: o.ByteTime, SharedBus: o.SharedBus, FullDuplex: o.FullDuplex}
}

// simulate is the one place a SimOptions becomes a simulator run: Simulate
// and TraceSimulation differ only in the trace flag.
func simulate(k Kernel, d Distribution, plan *Plan, opts SimOptions, trace bool) (*SimResult, error) {
	if err := opts.Broadcast.Validate(); err != nil {
		return nil, fmt.Errorf("hetgrid: %w", err)
	}
	kopts := kernels.Options{
		Net:         opts.net(),
		Broadcast:   opts.Broadcast,
		BlockBytes:  opts.BlockBytes,
		SyncSteps:   opts.SyncSteps,
		Pivoting:    opts.Pivoting,
		EnableTrace: trace,
	}
	switch k {
	case MatMul:
		return kernels.SimulateMM(d, plan.sol.Arr, kopts)
	case LU:
		return kernels.SimulateLU(d, plan.sol.Arr, kopts)
	case QR:
		// QR shares LU's structure with a costlier panel: the Householder
		// panel factor and the trailing application each cost roughly twice
		// a rank-r update.
		kopts.FactorCost = 2
		kopts.SolveCost = 2
		res, err := kernels.SimulateLU(d, plan.sol.Arr, kopts)
		if err != nil {
			return nil, err
		}
		res.Kernel = "qr"
		return res, nil
	case Cholesky:
		return kernels.SimulateCholesky(d, plan.sol.Arr, kopts)
	default:
		return nil, fmt.Errorf("hetgrid: unknown kernel %q", k)
	}
}

// Simulate executes the kernel on the simulated HNOW under the given
// distribution. The arrangement is taken from the plan; the distribution
// must have matching grid dimensions.
func Simulate(k Kernel, d Distribution, plan *Plan, opts SimOptions) (*SimResult, error) {
	return simulate(k, d, plan, opts, false)
}

// Multiply executes the blocked multiplication C = A·B with block
// ownership from d, returning the numeric result. It verifies nothing by
// itself; it exists so applications can run the real arithmetic under the
// same distribution they simulate. WithNumerics selects the
// floating-point contract (Strict stays the default).
func Multiply(d Distribution, a, b *Matrix, opts ...Option) (*Matrix, error) {
	rep, err := kernels.ReplayMMNumerics(d, a, b, applyOptions(opts).exec.Numerics)
	if err != nil {
		return nil, err
	}
	return rep.C, nil
}
