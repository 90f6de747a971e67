package kernels

// Simulator bit-golden: testdata/golden_sim.json pins Makespan, CompBound,
// Messages and Bytes of every simulated kernel × distribution × broadcast
// × grid × fabric combination to the bit (floats as hex Float64bits). The
// virtual-time schedule is order-sensitive — sim.Timeline.Reserve books
// resources in call order — so any refactor of the Simulate* loops that
// reorders a broadcast or a compute shows up here, not only in the
// benchmark's sim-paper workload. Regenerate with
//
//	go test ./internal/kernels -run TestSimulatorGolden -update
//
// only when a behaviour change is intended.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden of the tests selected by -run")

const goldenSimPath = "testdata/golden_sim.json"

type goldenSimRow struct {
	Name      string `json:"name"`
	Makespan  string `json:"makespan_bits"`
	CompBound string `json:"comp_bound_bits"`
	Messages  int    `json:"messages"`
	Bytes     string `json:"bytes_bits"`
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenSimRows runs the whole matrix in a fixed order: block order 12,
// where every panel tiles the matrix evenly, then 37, where the last panel
// row and column are partial (rows named "nb37/…").
func goldenSimRows(t *testing.T) []goldenSimRow {
	t.Helper()
	var rows []goldenSimRow
	for _, nb := range []int{12, 37} {
		prefix := ""
		if nb != 12 {
			prefix = fmt.Sprintf("nb%d/", nb)
		}
		rows = append(rows, goldenSimRowsAt(t, nb, prefix)...)
	}
	return rows
}

func goldenSimRowsAt(t *testing.T, nb int, prefix string) []goldenSimRow {
	t.Helper()
	grids := []struct {
		name string
		arr  *grid.Arrangement
	}{
		{"2x2", grid.MustNew([][]float64{{1, 2}, {3, 5}})},
		{"3x3", grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})},
	}
	kernelsUnderTest := []struct {
		name string
		run  func(distribution.Distribution, *grid.Arrangement, Options) (*Result, error)
		set  func(*Options)
	}{
		{"mm", SimulateMM, func(*Options) {}},
		{"mm+sync", SimulateMM, func(o *Options) { o.SyncSteps = true }},
		{"lu", SimulateLU, func(*Options) {}},
		{"lu+pivot", SimulateLU, func(o *Options) { o.Pivoting = true }},
		{"cholesky", SimulateCholesky, func(*Options) {}},
	}
	bcasts := []struct {
		name string
		kind sim.BroadcastKind
	}{
		{"star", sim.StarBroadcast}, {"ring", sim.RingBroadcast},
		{"segring", sim.SegmentedRingBroadcast}, {"tree", sim.TreeBroadcast},
	}
	var rows []goldenSimRow
	for _, g := range grids {
		uni, err := distribution.UniformBlockCyclic(g.arr.P, g.arr.Q, nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := distribution.NewKL(g.arr, nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := core.SolveArrangementExactOpt(g.arr, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pan, err := distribution.BestPanel(sol, 6, 6, distribution.Interleaved, distribution.Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		het, err := pan.Distribution(nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		dists := []struct {
			name string
			d    distribution.Distribution
		}{{"uniform", uni}, {"kl", kl}, {"het-panel", het}}
		for _, k := range kernelsUnderTest {
			for _, d := range dists {
				for _, b := range bcasts {
					for _, bus := range []bool{false, true} {
						opts := Options{
							Net:        sim.Config{Latency: 0.5, ByteTime: 1e-3, SharedBus: bus},
							Broadcast:  b.kind,
							BlockBytes: 512,
						}
						k.set(&opts)
						res, err := k.run(d.d, g.arr, opts)
						if err != nil {
							t.Fatal(err)
						}
						fabric := "switched"
						if bus {
							fabric = "bus"
						}
						rows = append(rows, goldenSimRow{
							Name:      prefix + fmt.Sprintf("%s/%s/%s/%s/%s", g.name, k.name, d.name, b.name, fabric),
							Makespan:  bitsOf(res.Makespan),
							CompBound: bitsOf(res.CompBound),
							Messages:  res.Stats.Messages,
							Bytes:     bitsOf(res.Stats.Bytes),
						})
					}
				}
			}
		}
	}
	return rows
}

func TestSimulatorGolden(t *testing.T) {
	got := goldenSimRows(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSimPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenSimPath)
		return
	}
	blob, err := os.ReadFile(goldenSimPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSimRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("simulator golden has %d rows, the matrix now produces %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, golden %+v", i, got[i], want[i])
		}
	}
}
