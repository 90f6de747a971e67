package distribution

import (
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
)

// fig1Solution returns the perfectly balanced solution for the rank-1 grid
// [[1,2],[3,6]] of the paper's Figure 1.
func fig1Solution(t *testing.T) *core.Solution {
	t.Helper()
	sol, ok := core.SolveRank1(grid.MustNew([][]float64{{1, 2}, {3, 6}}), 0)
	if !ok {
		t.Fatal("Figure 1 grid must be rank-1")
	}
	return sol
}

// fig4Solution returns the exact solution for [[1,2],[3,5]] used in the
// paper's LU example (§3.2.2, Figure 4).
func fig4Solution(t *testing.T) *core.Solution {
	t.Helper()
	sol, _, err := core.SolveArrangementExactOpt(grid.MustNew([][]float64{{1, 2}, {3, 5}}), core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestFig1PanelCounts(t *testing.T) {
	// Figure 1: B_p=4, B_q=3 on [[1,2],[3,6]]. The processor of cycle-time
	// 1 gets 3×2=6 blocks, 2 gets 3, 3 gets 2, 6 gets 1 — perfect balance.
	p, err := NewPanel(fig1Solution(t), 4, 3, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	if p.RowCounts[0] != 3 || p.RowCounts[1] != 1 {
		t.Fatalf("RowCounts = %v, want [3 1]", p.RowCounts)
	}
	if p.ColCounts[0] != 2 || p.ColCounts[1] != 1 {
		t.Fatalf("ColCounts = %v, want [2 1]", p.ColCounts)
	}
	// Per-processor block counts within the panel.
	want := [][]int{{6, 3}, {2, 1}}
	for i := range want {
		for j := range want[i] {
			if got := p.RowCounts[i] * p.ColCounts[j]; got != want[i][j] {
				t.Fatalf("P%d%d owns %d blocks per panel, want %d", i+1, j+1, got, want[i][j])
			}
		}
	}
	// Perfect balance: every processor takes the same time per panel.
	if math.Abs(p.PanelEfficiency()-1) > 1e-12 {
		t.Fatalf("panel efficiency %v, want 1", p.PanelEfficiency())
	}
}

func TestFig2CyclicDistribution(t *testing.T) {
	// Figure 2: the 4×3 panel tiled over a 10×10 block matrix. Row pattern
	// 1,1,1,3 and column pattern 1,1,2 repeat cyclically.
	p, err := NewPanel(fig1Solution(t), 4, 3, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Distribution(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	// First row of Figure 2: 1 1 2 1 1 2 1 1 2 1.
	wantRow0 := []float64{1, 1, 2, 1, 1, 2, 1, 1, 2, 1}
	for bj, want := range wantRow0 {
		pi, pj := d.Owner(0, bj)
		if arr.T[pi][pj] != want {
			t.Fatalf("block (0,%d) owned by cycle-time %v, want %v", bj, arr.T[pi][pj], want)
		}
	}
	// Fourth row of Figure 2: 3 3 6 3 3 6 3 3 6 3.
	wantRow3 := []float64{3, 3, 6, 3, 3, 6, 3, 3, 6, 3}
	for bj, want := range wantRow3 {
		pi, pj := d.Owner(3, bj)
		if arr.T[pi][pj] != want {
			t.Fatalf("block (3,%d) owned by cycle-time %v, want %v", bj, arr.T[pi][pj], want)
		}
	}
	// Grid communication pattern holds.
	if !ComputeNeighborStats(d).GridPattern {
		t.Fatal("panel distribution broke the grid pattern")
	}
}

func TestFig4LUPanelOrdering(t *testing.T) {
	// §3.2.2 / Figure 4: B_p=8, B_q=6 on [[1,2],[3,5]]. Each grid column
	// gets 6+2 panel rows; the 6 panel columns are ordered ABAABA.
	p, err := NewPanel(fig4Solution(t), 8, 6, Contiguous, Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	if p.RowCounts[0] != 6 || p.RowCounts[1] != 2 {
		t.Fatalf("RowCounts = %v, want [6 2]", p.RowCounts)
	}
	if p.ColCounts[0] != 4 || p.ColCounts[1] != 2 {
		t.Fatalf("ColCounts = %v, want [4 2]", p.ColCounts)
	}
	wantOrder := []int{0, 1, 0, 0, 1, 0} // A B A A B A
	for k, want := range wantOrder {
		if p.ColOrder[k] != want {
			t.Fatalf("ColOrder = %v, want %v (ABAABA)", p.ColOrder, wantOrder)
		}
	}
	// Row order is contiguous: six 0s then two 1s (Figure 4's rows).
	for k := 0; k < 6; k++ {
		if p.RowOrder[k] != 0 {
			t.Fatalf("RowOrder = %v, want six leading 0s", p.RowOrder)
		}
	}
	for k := 6; k < 8; k++ {
		if p.RowOrder[k] != 1 {
			t.Fatalf("RowOrder = %v, want two trailing 1s", p.RowOrder)
		}
	}
}

func TestPanelOrderIsPermutationOfCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		pdim := 1 + rng.Intn(3)
		q := 1 + rng.Intn(3)
		times := make([]float64, pdim*q)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
		}
		res, err := core.SolveHeuristic(times, pdim, q, core.HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bp := pdim + rng.Intn(10)
		bq := q + rng.Intn(10)
		for _, ords := range [][2]Ordering{{Contiguous, Contiguous}, {Interleaved, Interleaved}} {
			pan, err := NewPanel(res.Solution, bp, bq, ords[0], ords[1])
			if err != nil {
				t.Fatal(err)
			}
			rc := make([]int, pdim)
			for _, o := range pan.RowOrder {
				rc[o]++
			}
			for i := range rc {
				if rc[i] != pan.RowCounts[i] {
					t.Fatalf("RowOrder counts %v != RowCounts %v", rc, pan.RowCounts)
				}
				if pan.RowCounts[i] < 1 {
					t.Fatalf("grid row %d owns no panel rows", i)
				}
			}
			cc := make([]int, q)
			for _, o := range pan.ColOrder {
				cc[o]++
			}
			for j := range cc {
				if cc[j] != pan.ColCounts[j] {
					t.Fatalf("ColOrder counts %v != ColCounts %v", cc, pan.ColCounts)
				}
			}
		}
	}
}

func TestPanelTooSmall(t *testing.T) {
	sol := fig1Solution(t)
	if _, err := NewPanel(sol, 1, 3, Contiguous, Contiguous); err == nil {
		t.Fatal("panel with fewer rows than grid rows accepted")
	}
	if _, err := NewPanel(sol, 4, 1, Contiguous, Contiguous); err == nil {
		t.Fatal("panel with fewer columns than grid columns accepted")
	}
}

func TestPanelDistributionCyclic(t *testing.T) {
	p, err := NewPanel(fig1Solution(t), 4, 3, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Distribution(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Periodicity: owner of (bi, bj) equals owner of (bi+4, bj+3).
	for bi := 0; bi < 8; bi++ {
		for bj := 0; bj < 6; bj++ {
			pi1, pj1 := d.Owner(bi, bj)
			pi2, pj2 := d.Owner(bi+4, bj+3)
			if pi1 != pi2 || pj1 != pj2 {
				t.Fatalf("distribution not panel-periodic at (%d,%d)", bi, bj)
			}
		}
	}
	if _, err := p.Distribution(0, 5); err == nil {
		t.Fatal("invalid block matrix accepted")
	}
}

func TestPanelWorkloadAndEfficiency(t *testing.T) {
	// Imperfect grid: efficiency strictly below 1.
	pan, err := NewPanel(fig4Solution(t), 8, 6, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	// Workload: max of counts-product × t: P11: 6·1·4=24, P12: 6·2·2=24,
	// P21: 2·3·4=24, P22: 2·5·2=20 → makespan 24.
	if got := panelWorkload(pan.Arr, pan.RowCounts, pan.ColCounts); math.Abs(got-24) > 1e-12 {
		t.Fatalf("panel workload %v, want 24", got)
	}
	eff := pan.PanelEfficiency()
	if eff <= 0 || eff >= 1 {
		t.Fatalf("efficiency %v outside (0,1) for imperfect grid", eff)
	}
	// Ideal: total speed 1+1/2+1/3+1/5 = 61/30; 48 blocks / (61/30) ÷ 24.
	want := 48.0 / (61.0 / 30.0) / 24.0
	if math.Abs(eff-want) > 1e-12 {
		t.Fatalf("efficiency %v, want %v", eff, want)
	}
}

func TestBestPanelAtLeastAsGoodAsFixed(t *testing.T) {
	sol := fig4Solution(t)
	best, err := BestPanel(sol, 12, 12, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewPanel(sol, 8, 6, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	if best.PanelEfficiency() < fixed.PanelEfficiency()-1e-12 {
		t.Fatalf("BestPanel %v worse than fixed 8×6 %v", best.PanelEfficiency(), fixed.PanelEfficiency())
	}
	if _, err := BestPanel(sol, 1, 12, Contiguous, Contiguous); err == nil {
		t.Fatal("max panel smaller than grid accepted")
	}
}

func TestBestPanelPerfectForRank1(t *testing.T) {
	best, err := BestPanel(fig1Solution(t), 8, 8, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.PanelEfficiency()-1) > 1e-12 {
		t.Fatalf("rank-1 best panel efficiency %v, want 1", best.PanelEfficiency())
	}
	// Smallest perfect panel for shares (3:1)×(2:1) is 4×3.
	if best.Bp != 4 || best.Bq != 3 {
		t.Fatalf("best panel %d×%d, want 4×3 (smallest perfect)", best.Bp, best.Bq)
	}
}

func TestRoundSharesPositiveNoZeroRows(t *testing.T) {
	// Extreme shares would round a slow processor to zero blocks; the panel
	// must still give it one.
	arr := grid.MustNew([][]float64{{1, 1}, {100, 100}})
	sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := NewPanel(sol, 8, 2, Contiguous, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range pan.RowCounts {
		if c < 1 {
			t.Fatalf("grid row %d got %d panel rows", i, c)
		}
	}
}
