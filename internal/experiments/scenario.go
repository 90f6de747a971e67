package experiments

import (
	"fmt"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/kernels"
	"hetgrid/internal/sim"
)

// scenario is what the simulated experiments share: the heuristic's plan
// for one set of cycle-times on a p×q grid, the nb×nb block matrix it is
// laid over, and the ring-broadcast network the kernels are priced on.
type scenario struct {
	sol  *core.Solution
	nb   int
	opts kernels.Options
}

func newScenario(times []float64, p, q, nb int, net sim.Config, blockBytes float64) (*scenario, error) {
	if len(times) != p*q {
		return nil, fmt.Errorf("experiments: %d cycle-times for %d×%d grid", len(times), p, q)
	}
	res, err := core.SolveHeuristic(times, p, q, core.HeuristicOptions{})
	if err != nil {
		return nil, err
	}
	return &scenario{
		sol:  res.Solution,
		nb:   nb,
		opts: kernels.Options{Net: net, Broadcast: sim.RingBroadcast, BlockBytes: blockBytes},
	}, nil
}

// bestPanel tiles the matrix with the most efficient panel of at most
// maxBp×maxBq blocks (and no larger than the matrix), rows and columns
// both in ord.
func (s *scenario) bestPanel(maxBp, maxBq int, ord distribution.Ordering) (distribution.Distribution, error) {
	pan, err := distribution.BestPanel(s.sol, min(maxBp, s.nb), min(maxBq, s.nb), ord, ord)
	if err != nil {
		return nil, err
	}
	return pan.Distribution(s.nb, s.nb)
}

func (s *scenario) simulateMM(d distribution.Distribution) (*kernels.Result, error) {
	return kernels.SimulateMM(d, s.sol.Arr, s.opts)
}
