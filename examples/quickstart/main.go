// Quickstart: balance a small heterogeneous grid, build the block-panel
// distribution, and simulate a matrix multiplication against the uniform
// ScaLAPACK baseline.
package main

import (
	"fmt"
	"log"

	"hetgrid"
)

func main() {
	log.SetFlags(0)

	// Four workstations: cycle-times are the (normalized) time each needs
	// to update one r×r matrix block — the machine with cycle-time 1 is 5×
	// faster than the one with cycle-time 5.
	times := []float64{1, 2, 3, 5}

	// 1. Arrange them on a 2×2 grid and balance the load.
	plan, err := hetgrid.Balance(times, 2, 2, hetgrid.PlanAuto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrangement:\n%s", plan.Arrangement())
	fmt.Printf("row shares %v, column shares %v\n", plan.RowShares(), plan.ColShares())
	fmt.Printf("mean processor utilization: %.1f%%\n\n", 100*plan.MeanWorkload())

	// 2. Turn the rational shares into a concrete block panel.
	layout, err := plan.BestPanel(12, 12, hetgrid.MatMul)
	if err != nil {
		log.Fatal(err)
	}
	bp, bq := layout.Size()
	fmt.Printf("best panel: %d×%d blocks, efficiency %.1f%%\n", bp, bq, 100*layout.Efficiency())
	fmt.Printf("panel rows per grid row: %v, panel columns per grid column: %v\n\n",
		layout.RowCounts(), layout.ColCounts())

	// 3. Distribute a 24×24 block matrix and simulate C = A·B.
	const nb = 24
	panelDist, err := layout.Distribute(nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	uniformDist, err := hetgrid.Uniform(2, 2, nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	opts := hetgrid.SimOptions{Latency: 0.05, ByteTime: 1e-5, BlockBytes: 8 * 32 * 32}
	for _, c := range []struct {
		name string
		d    hetgrid.Distribution
	}{{"uniform block-cyclic", uniformDist}, {"heterogeneous panel", panelDist}} {
		res, err := hetgrid.Simulate(hetgrid.MatMul, c.d, plan, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s makespan %10.1f  (compute bound %10.1f, %d messages)\n",
			c.name, res.Makespan, res.CompBound, res.Stats.Messages)
	}
}
