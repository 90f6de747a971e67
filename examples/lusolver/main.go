// Dense linear system solver on a heterogeneous 2D grid: factor A = L·U
// with the blocked right-looking algorithm under the paper's panel
// distribution, solve A·x = b, and show why the panel-column interleaving
// (the ABAABA ordering of §3.2.2) matters once the factorization's active
// region starts shrinking.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"hetgrid"
	"hetgrid/internal/matrix"
)

func main() {
	log.SetFlags(0)

	// The paper's running 2×2 example: cycle-times 1, 2, 3, 5 (no perfect
	// balance exists for these).
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrangement:\n%s", plan.Arrangement())
	fmt.Printf("workload matrix (1.00 = always busy):\n")
	for _, row := range plan.Workload() {
		fmt.Printf("  %.2f\n", row)
	}

	layout, err := plan.Panel(8, 6, hetgrid.LU)
	if err != nil {
		log.Fatal(err)
	}
	order := layout.ColOrder()
	letters := make([]byte, len(order))
	for i, o := range order {
		letters[i] = byte('A' + o)
	}
	fmt.Printf("\nLU panel 8×6, column order %s (paper: ABAABA)\n\n", letters)

	// Factor and solve numerically.
	const nb, r = 12, 6
	n := nb * r
	d, err := layout.Distribute(nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a := matrix.RandomWellConditioned(n, rng)
	xTrue := matrix.Random(n, 1, rng)
	b := matrix.Mul(a, xTrue)

	f, err := hetgrid.Factor(hetgrid.LU, d, a)
	if err != nil {
		log.Fatal(err)
	}
	packed := f.Packed()
	fmt.Printf("block operations per processor: %v\n", f.Ops())

	// Forward/back substitution with the packed factors.
	x := b.Clone()
	packed.SolveLowerUnit(x)
	if err := packed.SolveUpper(x); err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for i := 0; i < n; i++ {
		if e := math.Abs(x.At(i, 0) - xTrue.At(i, 0)); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("solve A·x = b for n = %d: max |x - x_true| = %.2e\n\n", n, maxErr)

	// Simulated timings: contiguous vs interleaved panel columns, and the
	// uniform baseline.
	const simNB = 48
	opts := hetgrid.SimOptions{Latency: 0.02, ByteTime: 1e-5, BlockBytes: 8 * r * r}
	uniform, err := hetgrid.Uniform(2, 2, simNB, simNB)
	if err != nil {
		log.Fatal(err)
	}
	interleaved, err := layout.Distribute(simNB, simNB)
	if err != nil {
		log.Fatal(err)
	}
	contigLayout, err := plan.Panel(8, 6, hetgrid.MatMul) // MatMul layout = contiguous ordering
	if err != nil {
		log.Fatal(err)
	}
	contiguous, err := contigLayout.Distribute(simNB, simNB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated LU on a %d×%d block matrix:\n", simNB, simNB)
	var base float64
	for _, c := range []struct {
		name string
		d    hetgrid.Distribution
	}{
		{"uniform block-cyclic", uniform},
		{"panel, contiguous order", contiguous},
		{"panel, interleaved (ABAABA)", interleaved},
	} {
		res, err := hetgrid.Simulate(hetgrid.LU, c.d, plan, opts)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.Makespan
		}
		fmt.Printf("  %-28s makespan %9.1f  speedup %4.2fx\n", c.name, res.Makespan, base/res.Makespan)
	}
}
