package experiments

import (
	"fmt"
	"strings"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/kernels"
	"hetgrid/internal/sim"
)

// SimRow is one simulated kernel execution in a comparison table.
type SimRow struct {
	Kernel       string
	Distribution string
	Network      string
	Makespan     float64
	CompBound    float64
	Efficiency   float64
	Messages     int
	// SpeedupVsUniform is uniform-cyclic makespan / this makespan under the
	// same kernel and network (1.0 for the uniform rows themselves).
	SpeedupVsUniform float64
}

// SimComparison is a set of SimRows from one configuration.
type SimComparison struct {
	Arr  *grid.Arrangement
	NB   int
	Rows []SimRow
}

// SimConfig parameterizes RunSimComparison.
type SimConfig struct {
	// Times are the processor cycle-times, P×Q of them.
	Times []float64
	P, Q  int
	// NB is the block matrix side.
	NB int
	// MaxPanel bounds the panel-size search for the heterogeneous panel.
	MaxPanel int
	// Latency, ByteTime, BlockBytes parameterize the network.
	Latency, ByteTime, BlockBytes float64
}

// DefaultSimConfig mirrors a plausible late-90s HNOW: 10 ms Ethernet-class
// latency is scaled down to per-block virtual units; block updates take
// t_ij ∈ (0,1] units.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Times:      []float64{1, 2, 3, 5},
		P:          2,
		Q:          2,
		NB:         24,
		MaxPanel:   12,
		Latency:    0.05,
		ByteTime:   1e-5,
		BlockBytes: 8 * 32 * 32,
	}
}

// RunSimComparison simulates MM and LU under the three distribution
// families on both network types and tabulates makespans. The heterogeneous
// panel uses the heuristic (with exact fallback for tiny grids handled by
// the caller via times ordering) and the best panel size up to MaxPanel.
func RunSimComparison(cfg SimConfig) (*SimComparison, error) {
	sc, err := newScenario(cfg.Times, cfg.P, cfg.Q, cfg.NB,
		sim.Config{Latency: cfg.Latency, ByteTime: cfg.ByteTime}, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	arr := sc.sol.Arr
	cmp := &SimComparison{Arr: arr, NB: cfg.NB}

	// Distributions under test. The uniform baseline and KL use the same
	// (heuristic-chosen) arrangement so only the allocation differs.
	uni, err := distribution.UniformBlockCyclic(cfg.P, cfg.Q, cfg.NB, cfg.NB)
	if err != nil {
		return nil, err
	}
	kl, err := distribution.NewKL(arr, cfg.NB, cfg.NB)
	if err != nil {
		return nil, err
	}
	mmPanel, err := sc.bestPanel(cfg.MaxPanel, cfg.MaxPanel, distribution.Contiguous)
	if err != nil {
		return nil, err
	}
	luPanel, err := sc.bestPanel(cfg.MaxPanel, cfg.MaxPanel, distribution.Interleaved)
	if err != nil {
		return nil, err
	}

	// The uniform case comes first: its makespans are the speedup baseline.
	cases := []struct {
		name   string
		mm, lu distribution.Distribution
	}{
		{"uniform-cyclic", uni, uni},
		{"kalinov-lastovetsky", kl, kl},
		{"het-panel", mmPanel, luPanel},
	}
	runs := []struct {
		kernel    string
		lu, pivot bool
	}{{"matmul", false, false}, {"lu", true, false}, {"lu-pivot", true, true}}
	for _, network := range []string{"switched", "shared-bus"} {
		opts := sc.opts
		opts.Net.SharedBus = network == "shared-bus"
		uniform := make([]float64, len(runs))
		for ci, dc := range cases {
			for ri, run := range runs {
				opts.Pivoting = run.pivot
				simulate, d := kernels.SimulateMM, dc.mm
				if run.lu {
					simulate, d = kernels.SimulateLU, dc.lu
				}
				res, err := simulate(d, arr, opts)
				if err != nil {
					return nil, err
				}
				if ci == 0 {
					uniform[ri] = res.Makespan
				}
				cmp.Rows = append(cmp.Rows, SimRow{
					Kernel: run.kernel, Distribution: dc.name, Network: network,
					Makespan: res.Makespan, CompBound: res.CompBound,
					Efficiency: res.Efficiency(), Messages: res.Stats.Messages,
					SpeedupVsUniform: uniform[ri] / res.Makespan,
				})
			}
		}
	}
	return cmp, nil
}

// Table renders the comparison.
func (c *SimComparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "simulated kernels on %d×%d grid, %d×%d blocks\n", c.Arr.P, c.Arr.Q, c.NB, c.NB)
	fmt.Fprintf(&sb, "%-8s %-20s %-11s %12s %10s %9s %8s\n",
		"kernel", "distribution", "network", "makespan", "eff", "msgs", "speedup")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%-8s %-20s %-11s %12.2f %10.3f %9d %8.2f\n",
			r.Kernel, r.Distribution, r.Network, r.Makespan, r.Efficiency, r.Messages, r.SpeedupVsUniform)
	}
	return sb.String()
}

// CSV renders one line per row.
func (c *SimComparison) CSV() string {
	var sb strings.Builder
	sb.WriteString("kernel,distribution,network,makespan,comp_bound,efficiency,messages,speedup_vs_uniform\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%s,%s,%s,%.4f,%.4f,%.4f,%d,%.4f\n",
			r.Kernel, r.Distribution, r.Network, r.Makespan, r.CompBound, r.Efficiency, r.Messages, r.SpeedupVsUniform)
	}
	return sb.String()
}
