package kernels

import (
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

// paperSimulators are the three simulated kernels with the region whose
// panel orderings their heterogeneous distribution uses.
var paperSimulators = []struct {
	name   string
	run    func(distribution.Distribution, *grid.Arrangement, Options) (*Result, error)
	region distribution.Region
}{
	{"mm", SimulateMM, distribution.All},
	{"lu", SimulateLU, distribution.Trailing},
	{"cholesky", SimulateCholesky, distribution.TrailingLower},
}

// paperGrid returns the 3×3 case of the benchmark's sim-paper workload at
// nb = 48: the arrangement planned for cycle times 1..9 and, for a kernel
// region, the Kalinov–Lastovetsky and the heterogeneous panel distribution
// (best panel up to 12×12 in the region's orderings).
func paperGrid(tb testing.TB, r distribution.Region) (*grid.Arrangement, []distribution.Distribution) {
	tb.Helper()
	const nb = 48
	hr, err := core.SolveHeuristic([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3, core.HeuristicOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	kl, err := distribution.NewKL(hr.Solution.Arr, nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	rowOrd, colOrd := r.Orderings()
	pan, err := distribution.BestPanel(hr.Solution, 12, 12, rowOrd, colOrd)
	if err != nil {
		tb.Fatal(err)
	}
	het, err := pan.Distribution(nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	return hr.Solution.Arr, []distribution.Distribution{kl, het}
}

// TestSimulateAllocations pins what one simulation allocates at nb = 48 on
// the 3×3 grid under a ring broadcast: at most a quarter of what the
// simulators allocated when every step built per-rank block lists, looked
// arrivals up in per-broadcast maps and derived each panel block's
// receivers into a fresh list. Those counts were, KL / het-panel:
//
//	mm        23,328 / 21,260
//	lu        17,357 / 15,756
//	cholesky  12,822 / 10,985
//
// The simulators now allocate 3,907 / 2,227, 3,172 / 2,284 and
// 2,669 / 2,040. Building LU's per-rank update lists again costs about
// 2,700 more, which a quarter catches on both layouts.
func TestSimulateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	before := map[string][2]float64{
		"mm":       {23328, 21260},
		"lu":       {17357, 15756},
		"cholesky": {12822, 10985},
	}
	opts := benchOpts()
	opts.Broadcast = sim.RingBroadcast
	for _, k := range paperSimulators {
		arr, dists := paperGrid(t, k.region)
		for i, d := range dists {
			got := testing.AllocsPerRun(3, func() {
				if _, err := k.run(d, arr, opts); err != nil {
					t.Fatal(err)
				}
			})
			if limit := before[k.name][i] / 4; got > limit {
				t.Errorf("%s on %s: %.0f allocations per simulation, want at most %.0f", k.name, d.Name(), got, limit)
			}
		}
	}
}
