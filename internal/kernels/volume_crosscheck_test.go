package kernels

import (
	"math"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

// volumeGrids returns the arrangement and distribution families of a 2×2
// and a 2×3 process grid: the analytic volumes must hold on non-square
// grids too.
func volumeGrids(t *testing.T, nb int) []struct {
	arr   *grid.Arrangement
	dists []distribution.Distribution
} {
	t.Helper()
	arr23 := grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}})
	uni, err := distribution.UniformBlockCyclic(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := distribution.NewKL(arr23, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		arr   *grid.Arrangement
		dists []distribution.Distribution
	}{
		{hetArr(), testDistributions(t, nb)},
		{arr23, []distribution.Distribution{uni, kl}},
	}
}

// testVolumeMatchesSimulator ties the closed-form communication analytics
// to the simulator: message and byte counters must agree exactly for every
// kernel, distribution family and point-to-point broadcast kind (the
// per-send count is kind-independent in the panel-aggregated model: each
// receiver gets the panel once).
func testVolumeMatchesSimulator(t *testing.T, nb int, blockBytes float64,
	simulate func(distribution.Distribution, *grid.Arrangement, Options) (*Result, error),
	volume func(distribution.Distribution, float64) (*distribution.CommVolume, error)) {
	t.Helper()
	for _, g := range volumeGrids(t, nb) {
		for _, d := range g.dists {
			vol, err := volume(d, blockBytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []sim.BroadcastKind{sim.FlatBroadcast, sim.RingBroadcast, sim.TreeBroadcast} {
				res, err := simulate(d, g.arr, Options{
					Net:        sim.Config{Latency: 1e-3, ByteTime: 1e-7},
					Broadcast:  kind,
					BlockBytes: blockBytes,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Messages != vol.Messages {
					t.Fatalf("%d×%d %s kind %d: simulator %d messages, analytics %d",
						g.arr.P, g.arr.Q, d.Name(), kind, res.Stats.Messages, vol.Messages)
				}
				if math.Abs(res.Stats.Bytes-vol.Bytes) > 1e-6 {
					t.Fatalf("%d×%d %s kind %d: simulator %v bytes, analytics %v",
						g.arr.P, g.arr.Q, d.Name(), kind, res.Stats.Bytes, vol.Bytes)
				}
			}
		}
	}
}

func TestMMVolumeMatchesSimulator(t *testing.T) {
	testVolumeMatchesSimulator(t, 16, 512, SimulateMM, distribution.MMCommVolume)
}

func TestLUVolumeMatchesSimulator(t *testing.T) {
	testVolumeMatchesSimulator(t, 12, 256, SimulateLU, distribution.LUCommVolume)
}

func TestCholeskyVolumeMatchesSimulator(t *testing.T) {
	testVolumeMatchesSimulator(t, 12, 256, SimulateCholesky, distribution.CholeskyCommVolume)
}
