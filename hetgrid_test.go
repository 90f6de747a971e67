package hetgrid

import (
	"math"
	"strings"
	"testing"
)

func TestBalanceAutoRank1(t *testing.T) {
	// {1,2,3,6} sorts row-major into the rank-1 [[1,2],[3,6]]: the auto
	// strategy takes the closed form and balances perfectly.
	plan, err := Balance([]float64{6, 2, 3, 1}, 2, 2, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.MeanWorkload()-1) > 1e-12 {
		t.Fatalf("rank-1 auto plan mean workload %v, want 1", plan.MeanWorkload())
	}
	if !plan.sol.Feasible(0) {
		t.Fatal("plan violates its load-balance constraints")
	}
	if !plan.Converged || plan.Iterations != 1 {
		t.Fatalf("rank-1 plan: converged=%v iterations=%d", plan.Converged, plan.Iterations)
	}
}

func TestBalanceHeuristicPaperExample(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3, PlanHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Objective()-2.5889) > 5e-4 {
		t.Fatalf("objective %v, want 2.5889", plan.Objective())
	}
	if plan.Iterations != 3 || !plan.Converged {
		t.Fatalf("iterations=%d converged=%v", plan.Iterations, plan.Converged)
	}
	if plan.Tau <= 0 {
		t.Fatalf("tau = %v, want positive refinement gain", plan.Tau)
	}
}

func TestBalanceExactDominatesHeuristic(t *testing.T) {
	times := []float64{0.9, 0.4, 0.7, 0.2}
	exact, err := Balance(times, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Balance(times, 2, 2, PlanHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Objective() > exact.Objective()+1e-9 {
		t.Fatal("heuristic beat exact")
	}
}

func TestBalanceErrors(t *testing.T) {
	if _, err := Balance([]float64{1, 2, 3}, 2, 2, PlanAuto); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Balance([]float64{1, -2, 3, 4}, 2, 2, PlanHeuristic); err == nil {
		t.Fatal("negative cycle-time accepted")
	}
	if _, err := Balance([]float64{1, 2, 3, 4}, 2, 2, PlanStrategy("magic")); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestPlanAccessorsCopy(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	r := plan.RowShares()
	r[0] = 99
	if plan.RowShares()[0] == 99 {
		t.Fatal("RowShares exposed internal slice")
	}
	c := plan.ColShares()
	c[0] = 99
	if plan.ColShares()[0] == 99 {
		t.Fatal("ColShares exposed internal slice")
	}
	w := plan.Workload()
	if len(w) != 2 || len(w[0]) != 2 {
		t.Fatalf("workload shape %dx%d", len(w), len(w[0]))
	}
}

func TestPanelAndDistribute(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.Panel(8, 6, LU)
	if err != nil {
		t.Fatal(err)
	}
	bp, bq := layout.Size()
	if bp != 8 || bq != 6 {
		t.Fatalf("panel size %d×%d", bp, bq)
	}
	// The paper's ABAABA column interleaving.
	want := []int{0, 1, 0, 0, 1, 0}
	got := layout.ColOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColOrder %v, want %v", got, want)
		}
	}
	d, err := layout.Distribute(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !Neighbors(d).GridPattern {
		t.Fatal("panel distribution must honour the grid pattern")
	}
}

func TestBestPanelEfficiency(t *testing.T) {
	plan, err := Balance([]float64{6, 2, 3, 1}, 2, 2, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.BestPanel(8, 8, MatMul)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(layout.Efficiency()-1) > 1e-12 {
		t.Fatalf("rank-1 best panel efficiency %v, want 1", layout.Efficiency())
	}
	if sum(layout.RowCounts()) != func() int { bp, _ := layout.Size(); return bp }() {
		t.Fatal("row counts do not sum to Bp")
	}
	if sum(layout.ColCounts()) != func() int { _, bq := layout.Size(); return bq }() {
		t.Fatal("col counts do not sum to Bq")
	}
}

func sum(x []int) int {
	s := 0
	for _, v := range x {
		s += v
	}
	return s
}

func TestSimulateAllKernels(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.BestPanel(12, 12, LU)
	if err != nil {
		t.Fatal(err)
	}
	d, err := layout.Distribute(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Latency: 1e-3, ByteTime: 1e-7, BlockBytes: 8192}
	var prev float64
	for _, k := range []Kernel{MatMul, LU, QR} {
		res, err := Simulate(k, d, plan, opts)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: non-positive makespan", k)
		}
		if k == QR {
			if res.Kernel != "qr" {
				t.Fatalf("QR result labeled %q", res.Kernel)
			}
			if res.Makespan <= prev {
				t.Fatal("QR (heavier panels) not slower than LU")
			}
		}
		if k == LU {
			prev = res.Makespan
		}
	}
	if _, err := Simulate(Kernel("svd"), d, plan, opts); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestUniformVsPanelHeadline(t *testing.T) {
	// The paper's headline: uniform block-cyclic runs at the slowest
	// processor's speed; the heterogeneous panel does not.
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Uniform(2, 2, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.BestPanel(12, 12, MatMul)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := layout.Distribute(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	uniRes, err := Simulate(MatMul, uni, plan, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panRes, err := Simulate(MatMul, pd, plan, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if uniRes.Makespan/panRes.Makespan < 1.5 {
		t.Fatalf("headline speedup only %v", uniRes.Makespan/panRes.Makespan)
	}
}

func TestKalinovLastovetskyBreaksPattern(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KalinovLastovetsky(plan, 28, 28)
	if err != nil {
		t.Fatal(err)
	}
	if Neighbors(kl).GridPattern {
		t.Fatal("KL should break the grid pattern on this grid")
	}
}

func TestLayoutErrorPaths(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Panel(8, 6, Kernel("svd")); err == nil {
		t.Fatal("unknown kernel accepted by Panel")
	}
	if _, err := plan.BestPanel(8, 8, Kernel("svd")); err == nil {
		t.Fatal("unknown kernel accepted by BestPanel")
	}
	layout, err := plan.Panel(8, 6, LU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layout.Distribute(4, 4); err == nil {
		t.Fatal("block matrix smaller than panel accepted")
	}
	if _, err := layout.Distribute(-1, 8); err == nil {
		t.Fatal("negative block matrix accepted")
	}
}

// TestKernelString: a kernel's name is its wire name, and the empty kernel
// names none of the four, so every entry point that takes one rejects it.
func TestKernelString(t *testing.T) {
	if MatMul.String() != "matmul" || LU.String() != "lu" || QR.String() != "qr" || Cholesky.String() != "cholesky" {
		t.Fatal("kernel names wrong")
	}
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanExact)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var (
		empty Kernel
		a     *Matrix // never read: the kernel is rejected first
	)
	for name, call := range map[string]func() error{
		"Panel":     func() error { _, err := plan.Panel(4, 4, empty); return err },
		"BestPanel": func() error { _, err := plan.BestPanel(4, 4, empty); return err },
		"Simulate":  func() error { _, err := Simulate(empty, d, plan, SimOptions{}); return err },
		"TraceSimulation": func() error {
			_, _, err := TraceSimulation(empty, d, plan, SimOptions{}, 60)
			return err
		},
		"Factor":            func() error { _, err := Factor(empty, d, a); return err },
		"DistributedFactor": func() error { _, _, err := DistributedFactor(empty, d, a, 2); return err },
		"PlanSurvivors":     func() error { _, _, err := PlanSurvivors([]float64{1, 2, 3}, 4, 4, empty); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), `""`) {
			t.Fatalf("%s accepted the empty kernel (err %v)", name, err)
		}
	}
}
