package experiments

import (
	"fmt"
	"strings"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/kernels"
	"hetgrid/internal/onedim"
	"hetgrid/internal/sim"
)

// OneDimLURow is one column-allocation policy in the 1D LU comparison.
type OneDimLURow struct {
	Policy    string
	Cost      float64 // analytic Σ-of-suffix-makespans cost (compute only)
	Makespan  float64 // simulated end-to-end time
	CompBound float64
}

// OneDimLUComparison reproduces the companion papers' ([5, 6]) experiment:
// LU on a uni-dimensional arrangement of heterogeneous processors, where
// only the assignment of column blocks to processors varies. Policies:
//
//   - cyclic: the homogeneous round-robin (baseline);
//   - static-greedy: optimal counts via the incremental greedy, dealt
//     left-to-right (good totals, poor ordering for a shrinking matrix);
//   - lu-optimal: the reverse greedy of onedim.LUSequence, provably optimal
//     for the sum of suffix makespans.
type OneDimLUComparison struct {
	N, NB int
	Rows  []OneDimLURow
}

// RunOneDimLUComparison simulates the three policies.
func RunOneDimLUComparison(times []float64, nb int, net sim.Config, blockBytes float64) (*OneDimLUComparison, error) {
	n := len(times)
	if n == 0 || nb < 1 {
		return nil, fmt.Errorf("experiments: invalid 1D LU comparison (%d processors, %d blocks)", n, nb)
	}
	arr, err := grid.New([][]float64{times})
	if err != nil {
		return nil, err
	}
	cyclic := make([]int, nb)
	for k := range cyclic {
		cyclic[k] = k % n
	}
	greedy, err := onedim.Sequence(nb, times)
	if err != nil {
		return nil, err
	}
	luOpt, err := onedim.LUSequence(nb, times)
	if err != nil {
		return nil, err
	}
	cmp := &OneDimLUComparison{N: n, NB: nb}
	for _, pc := range []struct {
		name string
		cols []int
	}{
		{"cyclic", cyclic},
		{"static-greedy", greedy},
		{"lu-optimal", luOpt},
	} {
		cost, err := onedim.LUCost(pc.cols, times)
		if err != nil {
			return nil, err
		}
		rowOwner := make([]int, nb) // single grid row
		d, err := distribution.NewProduct(1, n, rowOwner, pc.cols, "1d-"+pc.name)
		if err != nil {
			return nil, err
		}
		res, err := kernels.SimulateLU(d, arr, kernels.Options{
			Net: net, Broadcast: sim.RingBroadcast, BlockBytes: blockBytes,
		})
		if err != nil {
			return nil, err
		}
		cmp.Rows = append(cmp.Rows, OneDimLURow{
			Policy:    pc.name,
			Cost:      cost,
			Makespan:  res.Makespan,
			CompBound: res.CompBound,
		})
	}
	return cmp, nil
}

// Table renders the comparison.
func (c *OneDimLUComparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "1D LU column allocation, %d processors, %d blocks\n", c.N, c.NB)
	fmt.Fprintf(&sb, "%-14s %14s %12s %12s\n", "policy", "analytic cost", "makespan", "comp bound")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%-14s %14.2f %12.2f %12.2f\n", r.Policy, r.Cost, r.Makespan, r.CompBound)
	}
	return sb.String()
}

// CSV renders one line per policy.
func (c *OneDimLUComparison) CSV() string {
	var sb strings.Builder
	sb.WriteString("policy,analytic_cost,makespan,comp_bound\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%s,%.4f,%.4f,%.4f\n", r.Policy, r.Cost, r.Makespan, r.CompBound)
	}
	return sb.String()
}
