// Heterogeneous matrix multiplication across a department's network of
// workstations: nine machines of three generations are arranged on a 3×3
// grid, the three distribution strategies are compared on both network
// fabrics, and the blocked algorithm is executed numerically to check that
// the distribution does not change the result.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hetgrid"
	"hetgrid/internal/matrix"
)

func main() {
	log.SetFlags(0)

	// The HNOW of the paper's introduction: a few recent machines, a
	// middle generation, and some old ones nobody wants to retire.
	// Cycle-times relative to the fastest box.
	machines := []struct {
		name string
		t    float64
	}{
		{"zeus", 1.0}, {"hera", 1.0}, {"apollo", 1.5},
		{"athena", 2.0}, {"ares", 2.5}, {"hermes", 3.0},
		{"demeter", 4.0}, {"hestia", 5.0}, {"iris", 6.0},
	}
	times := make([]float64, len(machines))
	for i, m := range machines {
		times[i] = m.t
	}
	fmt.Println("machines:")
	for _, m := range machines {
		fmt.Printf("  %-8s cycle-time %.1f\n", m.name, m.t)
	}

	plan, err := hetgrid.Balance(times, 3, 3, hetgrid.PlanHeuristic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheuristic arrangement (converged in %d steps):\n%s", plan.Iterations, plan.Arrangement())
	fmt.Printf("mean utilization: %.1f%%\n\n", 100*plan.MeanWorkload())

	layout, err := plan.BestPanel(12, 12, hetgrid.MatMul)
	if err != nil {
		log.Fatal(err)
	}

	const nb = 30
	panelDist, err := layout.Distribute(nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	uniformDist, err := hetgrid.Uniform(3, 3, nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	klDist, err := hetgrid.KalinovLastovetsky(plan, nb, nb)
	if err != nil {
		log.Fatal(err)
	}

	for _, net := range []struct {
		name string
		bus  bool
	}{{"switched (Myrinet-like)", false}, {"shared bus (Ethernet)", true}} {
		fmt.Printf("network: %s\n", net.name)
		opts := hetgrid.SimOptions{Latency: 0.05, ByteTime: 1e-5, SharedBus: net.bus, BlockBytes: 8 * 32 * 32}
		var uniform float64
		for _, c := range []struct {
			name string
			d    hetgrid.Distribution
		}{
			{"uniform block-cyclic", uniformDist},
			{"kalinov-lastovetsky", klDist},
			{"heterogeneous panel", panelDist},
		} {
			res, err := hetgrid.Simulate(hetgrid.MatMul, c.d, plan, opts)
			if err != nil {
				log.Fatal(err)
			}
			if uniform == 0 {
				uniform = res.Makespan
			}
			pattern := "grid"
			if !hetgrid.Neighbors(c.d).GridPattern {
				pattern = "extra-neighbour"
			}
			fmt.Printf("  %-22s makespan %9.1f  speedup %4.2fx  msgs %4d  pattern %s\n",
				c.name, res.Makespan, uniform/res.Makespan, res.Stats.Messages, pattern)
		}
		fmt.Println()
	}

	// Numeric check: the blocked product under the panel distribution
	// matches a straightforward serial multiply.
	rng := rand.New(rand.NewSource(1))
	const r = 8 // block size in elements
	a := matrix.Random(nb*r, nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	c, err := hetgrid.Multiply(panelDist, a, b)
	if err != nil {
		log.Fatal(err)
	}
	diff := matrix.Sub(c, matrix.Mul(a, b)).MaxAbs()
	fmt.Printf("numeric check: max |C_panel - C_serial| = %.2e on a %d×%d matrix\n", diff, nb*r, nb*r)
}
