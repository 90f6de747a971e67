package hetgrid_test

import (
	"fmt"

	"hetgrid"
)

// ExampleBalance shows the paper's running example: four processors of
// cycle-times 1, 2, 3 and 5 on a 2×2 grid.
func ExampleBalance() {
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		panic(err)
	}
	fmt.Printf("objective: %.2f blocks per time unit\n", plan.Objective())
	fmt.Printf("mean workload: %.1f%%\n", 100*plan.MeanWorkload())
	fmt.Printf("row shares: %.2f %.2f\n", plan.RowShares()[0], plan.RowShares()[1])
	fmt.Printf("column shares: %.2f %.2f\n", plan.ColShares()[0], plan.ColShares()[1])
	// Output:
	// objective: 2.00 blocks per time unit
	// mean workload: 95.8%
	// row shares: 1.00 0.33
	// column shares: 1.00 0.50
}

// ExampleBalance_rank1 shows the perfectly balanceable grid of the paper's
// Figure 1.
func ExampleBalance_rank1() {
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 6}, 2, 2, hetgrid.PlanAuto)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean workload: %.0f%%\n", 100*plan.MeanWorkload())
	// Output:
	// mean workload: 100%
}

// ExamplePlan_Panel builds the paper's Figure-4 LU panel with its ABAABA
// column interleaving.
func ExamplePlan_Panel() {
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		panic(err)
	}
	layout, err := plan.Panel(8, 6, hetgrid.LU)
	if err != nil {
		panic(err)
	}
	fmt.Println("rows per grid row:", layout.RowCounts())
	fmt.Println("columns per grid column:", layout.ColCounts())
	order := layout.ColOrder()
	letters := make([]byte, len(order))
	for i, o := range order {
		letters[i] = byte('A' + o)
	}
	fmt.Println("column order:", string(letters))
	// Output:
	// rows per grid row: [6 2]
	// columns per grid column: [4 2]
	// column order: ABAABA
}

// ExampleSimulate compares the uniform block-cyclic baseline against the
// heterogeneous panel on a simulated network of workstations.
func ExampleSimulate() {
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		panic(err)
	}
	layout, err := plan.BestPanel(12, 12, hetgrid.MatMul)
	if err != nil {
		panic(err)
	}
	const nb = 24
	panel, err := layout.Distribute(nb, nb)
	if err != nil {
		panic(err)
	}
	uniform, err := hetgrid.Uniform(2, 2, nb, nb)
	if err != nil {
		panic(err)
	}
	uniRes, err := hetgrid.Simulate(hetgrid.MatMul, uniform, plan, hetgrid.SimOptions{})
	if err != nil {
		panic(err)
	}
	panRes, err := hetgrid.Simulate(hetgrid.MatMul, panel, plan, hetgrid.SimOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("speedup over uniform: %.1fx\n", uniRes.Makespan/panRes.Makespan)
	// Output:
	// speedup over uniform: 2.5x
}

// ExampleNeighbors shows the grid-pattern analysis separating the paper's
// panel distribution from Kalinov–Lastovetsky's.
func ExampleNeighbors() {
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		panic(err)
	}
	layout, err := plan.Panel(8, 6, hetgrid.MatMul)
	if err != nil {
		panic(err)
	}
	panel, err := layout.Distribute(28, 28)
	if err != nil {
		panic(err)
	}
	kl, err := hetgrid.KalinovLastovetsky(plan, 28, 28)
	if err != nil {
		panic(err)
	}
	fmt.Println("panel keeps grid pattern:", hetgrid.Neighbors(panel).GridPattern)
	fmt.Println("KL keeps grid pattern:", hetgrid.Neighbors(kl).GridPattern)
	fmt.Println("KL max west neighbours:", hetgrid.Neighbors(kl).MaxWest)
	// Output:
	// panel keeps grid pattern: true
	// KL keeps grid pattern: false
	// KL max west neighbours: 2
}
