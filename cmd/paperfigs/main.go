// Command paperfigs regenerates every figure and table of the paper's
// evaluation into an output directory (CSV files plus terminal renderings).
//
// Usage:
//
//	paperfigs                 # everything, into ./out (byte for byte what is committed there)
//	paperfigs -only fig6      # one artifact
//	paperfigs -trials 500     # heavier averaging for Figures 6-8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hetgrid"
	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/experiments"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

// options are the knobs of a run; defaults reproduces the committed out/.
type options struct {
	only    string
	trials  int
	maxN    int
	seed    int64
	workers int
}

var defaults = options{trials: 300, maxN: 8, seed: 20000501}

// artefacts lists what paperfigs regenerates, in the order a full run
// writes them. -only accepts a name or an alias.
var artefacts = []struct {
	name    string
	aliases []string
	run     func(outDir string, o options) error
}{
	{"fig1", nil, fig1},
	{"fig3", nil, fig3},
	{"fig4", nil, fig4},
	{"example", nil, workedExample},
	{"exact", nil, exactTable},
	{"mm-lu", nil, simTable},
	{"shapes", nil, shapeTable},
	{"ablation", nil, ablationTables},
	{"1dlu", nil, oneDimLUTable},
	{"fig6", []string{"fig7", "fig8"}, sweepFigs},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var names []string
	for _, a := range artefacts {
		names = append(append(names, a.name), a.aliases...)
	}
	o := defaults
	outDir := flag.String("out", "out", "output directory for CSV files")
	flag.StringVar(&o.only, "only", o.only, "regenerate one artifact: "+strings.Join(names, ", "))
	flag.IntVar(&o.trials, "trials", o.trials, "random trials per grid size for Figures 6-8")
	flag.IntVar(&o.maxN, "maxn", o.maxN, "largest n for the n×n sweeps of Figures 6-8")
	flag.Int64Var(&o.seed, "seed", o.seed, "random seed (defaults to the IPPS 2000 date)")
	flag.IntVar(&o.workers, "workers", o.workers, "worker goroutines for the exact solver (0 = GOMAXPROCS; output is identical for any count)")
	flag.Parse()
	if err := run(*outDir, o); err != nil {
		log.Fatal(err)
	}
}

// run regenerates o.only, or every artefact when it is empty, into outDir.
func run(outDir string, o options) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	found := false
	for _, a := range artefacts {
		if o.only != "" && o.only != a.name && !slices.Contains(a.aliases, o.only) {
			continue
		}
		found = true
		if err := a.run(outDir, o); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	if !found {
		return fmt.Errorf("unknown artifact %q", o.only)
	}
	if o.only == "" {
		fmt.Printf("\nall artifacts written to %s/\n", outDir)
	}
	return nil
}

func writeFile(dir, name, content string) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// fig1 reproduces Figures 1–2: the rank-1 grid [[1,2],[3,6]] with a 4×3
// panel, perfectly balanced, tiled over a 10×10 block matrix.
func fig1(outDir string, _ options) error {
	fmt.Println("== Figure 1/2: perfect balance on the rank-1 grid [[1,2],[3,6]] ==")
	plan, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{Times: []float64{1, 2, 3, 6}, P: 2, Q: 2})
	if err != nil {
		return err
	}
	layout, err := plan.Panel(4, 3, hetgrid.MatMul)
	if err != nil {
		return err
	}
	d, err := layout.Distribute(10, 10)
	if err != nil {
		return err
	}
	rendered := distribution.Render(d, plan.Arrangement())
	fmt.Print(rendered)
	fmt.Printf("panel efficiency: %.0f%%\n\n", 100*layout.Efficiency())
	return writeFile(outDir, "fig2_ownermap.txt", rendered)
}

// fig3 reproduces Figure 3: the Kalinov–Lastovetsky distribution on
// [[1,2],[3,5]] with its 40:21 column split and broken grid pattern.
func fig3(outDir string, _ options) error {
	fmt.Println("== Figure 3: Kalinov–Lastovetsky distribution on [[1,2],[3,5]] ==")
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	d, err := distribution.NewKL(arr, 28, 61)
	if err != nil {
		return err
	}
	kl := d
	cols := kl.ColumnCounts()
	fmt.Printf("columns per processor column: %v (paper: 40 and 21 of 61)\n", cols)
	fmt.Printf("rows per processor row, column 0: %v (3:1)\n", kl.RowCountsIn(0))
	fmt.Printf("rows per processor row, column 1: %v (5:2)\n", kl.RowCountsIn(1))
	stats := distribution.ComputeNeighborStats(d)
	fmt.Printf("max west neighbours: %d (grid pattern: %v)\n\n", stats.MaxWest, stats.GridPattern)
	csv := fmt.Sprintf("metric,value\ncols_c0,%d\ncols_c1,%d\nmax_west,%d\ngrid_pattern,%v\n",
		cols[0], cols[1], stats.MaxWest, stats.GridPattern)
	return writeFile(outDir, "fig3_kl.csv", csv)
}

// fig4 reproduces Figure 4: the 8×6 LU panel on [[1,2],[3,5]] with its
// ABAABA column interleaving.
func fig4(outDir string, _ options) error {
	fmt.Println("== Figure 4: LU panel (Bp=8, Bq=6) on [[1,2],[3,5]] ==")
	plan, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{
		Times: []float64{1, 2, 3, 5}, P: 2, Q: 2, Strategy: hetgrid.PlanExact,
	})
	if err != nil {
		return err
	}
	layout, err := plan.Panel(8, 6, hetgrid.LU)
	if err != nil {
		return err
	}
	d, err := layout.Distribute(8, 6)
	if err != nil {
		return err
	}
	rendered := distribution.Render(d, plan.Arrangement())
	fmt.Print(rendered)
	order := layout.ColOrder()
	letters := make([]byte, len(order))
	for i, o := range order {
		letters[i] = byte('A' + o)
	}
	fmt.Printf("column order: %s (paper: ABAABA)\n\n", letters)
	return writeFile(outDir, "fig4_lupanel.txt", rendered+"column order: "+string(letters)+"\n")
}

// workedExample reproduces the §4.4.2–4.4.3 numbers.
func workedExample(outDir string, _ options) error {
	fmt.Println("== §4.4 worked example: T = [[1,2,3],[4,5,6],[7,8,9]] ==")
	res, err := core.SolveHeuristic([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3, core.HeuristicOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("objective per step: %v (paper: 2.4322, 2.5065, 2.5889)\n", res.Objectives)
	fmt.Printf("iterations: %d (paper: 3), converged: %v\n", res.Iterations, res.Converged)
	fmt.Printf("final arrangement:\n%s", res.Solution.Arr)
	firstArr, err := grid.RowMajor([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	if err != nil {
		return err
	}
	firstStep, err := core.RankOneStep(firstArr)
	if err != nil {
		return err
	}
	fmt.Printf("mean workload after step 1: %.4f (paper: 0.8302)\n\n", firstStep.MeanWorkload())
	csv := "step,objective\n"
	for i, o := range res.Objectives {
		csv += fmt.Sprintf("%d,%.4f\n", i+1, o)
	}
	return writeFile(outDir, "worked_example.csv", csv)
}

// sweepFigs regenerates Figures 6, 7 and 8.
func sweepFigs(outDir string, o options) error {
	fmt.Printf("== Figures 6-8: heuristic sweep, n = 2..%d, %d trials ==\n", o.maxN, o.trials)
	var sizes []int
	for n := 2; n <= o.maxN; n++ {
		sizes = append(sizes, n)
	}
	sweep, err := experiments.RunHeuristicSweep(sizes, o.trials, o.seed)
	if err != nil {
		return err
	}
	fmt.Print(sweep.Table())
	fmt.Println()
	fmt.Print(experiments.AsciiPlot("Figure 6: average workload vs n", sweep.Sizes, sweep.MeanWorkload, 50))
	fmt.Println()
	fmt.Print(experiments.AsciiPlot("Figure 7: refinement gain tau vs n", sweep.Sizes, sweep.Tau, 50))
	fmt.Println()
	fmt.Print(experiments.AsciiPlot("Figure 8: iterations to convergence vs n", sweep.Sizes, sweep.Iterations, 50))
	fmt.Println()
	return writeFile(outDir, "fig678_sweep.csv", sweep.CSV())
}

// shapeTable runs the 1D-vs-2D grid shape comparison (§2.2's scalability
// argument for configuring the HNOW as a 2D grid).
func shapeTable(outDir string, o options) error {
	fmt.Println("== grid shapes: 1D vs 2D for 16 processors (simulated MM) ==")
	cmp, err := experiments.RunShapeComparison(16, 32,
		sim.Config{Latency: 0.5, ByteTime: 1e-5, SharedBus: true}, 8*32*32, o.seed)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())
	best := cmp.Best()
	fmt.Printf("best shape: %d×%d\n\n", best.P, best.Q)
	return writeFile(outDir, "shape_scalability.csv", cmp.CSV())
}

// ablationTables runs the design-choice ablations: panel size and block
// granularity.
func ablationTables(outDir string, _ options) error {
	fmt.Println("== ablation: panel size (2×2 grid, cycle-times 1,2,3,5) ==")
	net := sim.Config{Latency: 0.05, ByteTime: 1e-5}
	pa, err := experiments.RunPanelAblation([]float64{1, 2, 3, 5}, 2, 2, 24, 8, 8, net, 8*32*32)
	if err != nil {
		return err
	}
	fmt.Print(pa.Table())
	best := pa.BestRow()
	fmt.Printf("best panel: %d×%d\n\n", best.Bp, best.Bq)
	if err := writeFile(outDir, "ablation_panel.csv", pa.CSV()); err != nil {
		return err
	}
	fmt.Println("== ablation: block granularity (fixed total work) ==")
	gs, err := experiments.RunGranularitySweep([]float64{1, 2, 3, 5}, 2, 2,
		[]int{4, 8, 16, 32, 48}, sim.Config{Latency: 2, ByteTime: 1e-6}, 4096)
	if err != nil {
		return err
	}
	fmt.Print(gs.Table())
	fmt.Println()
	return writeFile(outDir, "ablation_granularity.csv", gs.CSV())
}

// oneDimLUTable reproduces the companion papers' 1D LU column-allocation
// comparison (references [5, 6] of the paper).
func oneDimLUTable(outDir string, _ options) error {
	fmt.Println("== 1D heterogeneous LU (companion papers [5,6]) ==")
	cmp, err := experiments.RunOneDimLUComparison([]float64{1, 2, 3, 5}, 32,
		sim.Config{Latency: 0.01, ByteTime: 1e-6}, 4096)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())
	fmt.Println()
	return writeFile(outDir, "onedim_lu.csv", cmp.CSV())
}

// exactTable compares the heuristic against the exact solver on small
// grids (enabled by the §4.3.1 spanning-tree method).
func exactTable(outDir string, o options) error {
	fmt.Println("== heuristic vs exact (spanning-tree solver) ==")
	var csv string
	for _, dims := range [][2]int{{2, 2}, {2, 3}, {3, 3}} {
		cmp, err := experiments.RunExactComparison(dims[0], dims[1], 25, o.seed, o.workers)
		if err != nil {
			return err
		}
		fmt.Print(cmp.Table())
		csv += fmt.Sprintf("%dx%d,%.4f,%.4f,%d\n", dims[0], dims[1], cmp.MeanRatio, cmp.WorstRatio, cmp.ExactPerfect)
	}
	fmt.Println()
	return writeFile(outDir, "exact_vs_heuristic.csv", "grid,mean_ratio,worst_ratio,perfect\n"+csv)
}

// simTable runs the simulated MM and LU comparison of distributions.
func simTable(outDir string, _ options) error {
	fmt.Println("== simulated MM and LU on a heterogeneous NOW ==")
	cfg := experiments.DefaultSimConfig()
	cmp, err := experiments.RunSimComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())
	fmt.Println()
	return writeFile(outDir, "sim_mm_lu.csv", cmp.CSV())
}
