package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hetgrid/internal/core"
)

// ExactComparison records heuristic-vs-exact objective values on random
// small grids — the quality check §4.3.1's exponential solver makes
// possible.
type ExactComparison struct {
	P, Q   int
	Trials int
	// Ratios[k] is heuristic objective / exact objective for trial k
	// (always ≤ 1 + ε).
	Ratios []float64
	// MeanRatio and WorstRatio summarize the distribution.
	MeanRatio, WorstRatio float64
	// ExactPerfect counts trials where the exact solver achieved a mean
	// workload of 1 (a rank-1-arrangeable cycle-time set).
	ExactPerfect int
	// Stats accumulates the exact solver's search statistics over all
	// trials; PruneRatio reports how much of the theoretical spanning-tree
	// space the pivot walk never visited.
	Stats core.ExactStats
}

// RunExactComparison draws trials random cycle-time sets in (0,1], solves
// each with both the polynomial heuristic and the global exact search on
// the given number of workers (0 selects GOMAXPROCS; results are identical
// for every worker count), and records the objective ratios. Grid sizes
// beyond 3×3 get expensive fast (the search is doubly exponential).
func RunExactComparison(p, q, trials int, seed int64, workers int) (*ExactComparison, error) {
	if p <= 0 || q <= 0 || trials <= 0 {
		return nil, fmt.Errorf("experiments: invalid comparison %d×%d × %d trials", p, q, trials)
	}
	rng := rand.New(rand.NewSource(seed))
	cmp := &ExactComparison{P: p, Q: q, Trials: trials, WorstRatio: 1}
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		times := make([]float64, p*q)
		for i := range times {
			times[i] = 1 - rng.Float64()
		}
		heur, err := core.SolveHeuristic(times, p, q, core.HeuristicOptions{})
		if err != nil {
			return nil, err
		}
		exact, stats, err := core.SolveGlobalExactOpt(times, p, q, core.ExactOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		cmp.Stats.Add(stats)
		ratio := heur.Objective() / exact.Objective()
		cmp.Ratios = append(cmp.Ratios, ratio)
		sum += ratio
		if ratio < cmp.WorstRatio {
			cmp.WorstRatio = ratio
		}
		if exact.MeanWorkload() > 1-1e-9 {
			cmp.ExactPerfect++
		}
	}
	cmp.MeanRatio = sum / float64(trials)
	return cmp, nil
}

// Table renders the comparison summary.
func (c *ExactComparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "heuristic vs exact on %d×%d grids (%d random trials)\n", c.P, c.Q, c.Trials)
	fmt.Fprintf(&sb, "  mean objective ratio : %.4f\n", c.MeanRatio)
	fmt.Fprintf(&sb, "  worst objective ratio: %.4f\n", c.WorstRatio)
	fmt.Fprintf(&sb, "  exact perfect balance: %d/%d trials\n", c.ExactPerfect, c.Trials)
	fmt.Fprintf(&sb, "  trees visited        : %d of %d theoretical (prune ratio %.1f%%)\n",
		c.Stats.TreesVisited, c.Stats.TreesTheoretical, 100*c.Stats.PruneRatio())
	return sb.String()
}

// CSV renders one line per trial.
func (c *ExactComparison) CSV() string {
	var sb strings.Builder
	sb.WriteString("trial,ratio\n")
	for i, r := range c.Ratios {
		fmt.Fprintf(&sb, "%d,%.6f\n", i, r)
	}
	return sb.String()
}
