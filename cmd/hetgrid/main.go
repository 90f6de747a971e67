// Command hetgrid arranges heterogeneous processors on a 2D grid and
// prints the load-balanced block-panel distribution for a dense linear
// algebra kernel.
//
// Example:
//
//	hetgrid -times 1,2,3,5 -p 2 -q 2 -strategy exact -panel 8x6 -kernel lu -nb 16 -check
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"hetgrid"
	"hetgrid/internal/cliutil"
	"hetgrid/internal/matrix"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetgrid: ")
	var (
		timesFlag    = flag.String("times", "1,2,3,5", "comma-separated processor cycle-times (p*q values)")
		arrFlag      = flag.String("arrangement", "", "fixed arrangement as rows '1,2;3,5' (machines stay put; overrides -times/-p/-q)")
		pFlag        = flag.Int("p", 2, "grid rows")
		qFlag        = flag.Int("q", 2, "grid columns")
		strategyFlag = flag.String("strategy", "auto", "balancing strategy: auto, heuristic, exact")
		panelFlag    = flag.String("panel", "", "panel size BpxBq (default: best panel up to 4p x 4q)")
		kernelFlag   = flag.String("kernel", "matmul", "kernel the layout targets: matmul, lu, qr, cholesky")
		nbFlag       = flag.Int("nb", 0, "render the owner map for an nb x nb block matrix (0 = skip)")
		checkFlag    = flag.Bool("check", false, "numerically execute the kernel under the layout and verify the result")
		workersFlag  = flag.Int("workers", 0, "worker goroutines for the exact strategy (0 = GOMAXPROCS, 1 = serial; result is identical either way)")
	)
	flag.Parse()

	times, err := cliutil.ParseTimes(*timesFlag)
	if err != nil {
		log.Fatal(err)
	}
	strategy, err := hetgrid.ParseStrategy(*strategyFlag)
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := hetgrid.ParseKernel(*kernelFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Both CLI modes are one planning request to the canonical pipeline.
	req := hetgrid.PlanRequest{Times: times, P: *pFlag, Q: *qFlag, Strategy: strategy}
	if *arrFlag != "" {
		rows, err := cliutil.ParseArrangement(*arrFlag)
		if err != nil {
			log.Fatal(err)
		}
		req.P, req.Q, req.Fixed = len(rows), len(rows[0]), true
		req.Times = make([]float64, 0, req.P*req.Q)
		for _, row := range rows {
			req.Times = append(req.Times, row...)
		}
		*pFlag, *qFlag = req.P, req.Q
	}
	plan, _, err := hetgrid.SolvePlan(req, hetgrid.WithWorkers(*workersFlag))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrangement (cycle-times):\n%s", plan.Arrangement())
	fmt.Printf("row shares   : %s\n", cliutil.FormatFloats(plan.RowShares(), 4))
	fmt.Printf("column shares: %s\n", cliutil.FormatFloats(plan.ColShares(), 4))
	fmt.Printf("objective    : %.4f blocks/unit time\n", plan.Objective())
	fmt.Printf("mean workload: %.2f%%\n", 100*plan.MeanWorkload())
	fmt.Printf("iterations   : %d (converged=%v)\n", plan.Iterations, plan.Converged)

	var layout *hetgrid.Layout
	if *panelFlag != "" {
		bp, bq, err := cliutil.ParsePanel(*panelFlag)
		if err != nil {
			log.Fatal(err)
		}
		layout, err = plan.Panel(bp, bq, kernel)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		layout, err = plan.BestPanel(4*(*pFlag), 4*(*qFlag), kernel)
		if err != nil {
			log.Fatal(err)
		}
	}
	bp, bq := layout.Size()
	fmt.Printf("\npanel %dx%d for %s (efficiency %.2f%%)\n", bp, bq, kernel, 100*layout.Efficiency())
	fmt.Printf("panel rows per grid row     : %v\n", layout.RowCounts())
	fmt.Printf("panel columns per grid col  : %v\n", layout.ColCounts())
	fmt.Printf("panel column order          : %s\n", cliutil.OrderLetters(layout.ColOrder()))

	if *nbFlag <= 0 && *checkFlag {
		*nbFlag = 2 * bp
		if 2*bq > *nbFlag {
			*nbFlag = 2 * bq
		}
	}
	if *nbFlag <= 0 {
		return
	}
	d, err := layout.Distribute(*nbFlag, *nbFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nowner map (%dx%d blocks, labels are cycle-times):\n", *nbFlag, *nbFlag)
	arr := plan.Arrangement()
	for bi := 0; bi < *nbFlag; bi++ {
		for bj := 0; bj < *nbFlag; bj++ {
			pi, pj := d.Owner(bi, bj)
			fmt.Printf("%4g", arr.T[pi][pj])
		}
		fmt.Println()
	}

	if *checkFlag {
		if err := runCheck(kernel, d, *nbFlag); err != nil {
			log.Fatal(err)
		}
	}
}

// runCheck executes the kernel numerically under the distribution and
// verifies the result against a serial reference.
func runCheck(kernel hetgrid.Kernel, d hetgrid.Distribution, nb int) error {
	const r = 4
	n := nb * r
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("\nnumeric check (%s, n = %d):\n", kernel, n)
	switch kernel {
	case hetgrid.MatMul:
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c, err := hetgrid.Multiply(d, a, b)
		if err != nil {
			return err
		}
		diff := matrix.Sub(c, matrix.Mul(a, b)).MaxAbs()
		fmt.Printf("  max |C - C_serial| = %.2e\n", diff)
	case hetgrid.LU:
		a := matrix.RandomWellConditioned(n, rng)
		f, err := hetgrid.Factor(hetgrid.LU, d, a)
		if err != nil {
			return err
		}
		l, u := f.LU()
		diff := matrix.Sub(matrix.Mul(l, u), a).MaxAbs()
		fmt.Printf("  max |L*U - A| = %.2e, ops per processor %v\n", diff, f.Ops())
	case hetgrid.QR:
		a := matrix.Random(n, n, rng)
		f, err := hetgrid.Factor(hetgrid.QR, d, a)
		if err != nil {
			return err
		}
		diff := matrix.Sub(matrix.Mul(f.Q(r), f.R()), a).MaxAbs()
		fmt.Printf("  max |Q*R - A| = %.2e\n", diff)
	case hetgrid.Cholesky:
		a := matrix.RandomSPD(n, rng)
		f, err := hetgrid.Factor(hetgrid.Cholesky, d, a)
		if err != nil {
			return err
		}
		l := f.L()
		diff := matrix.Sub(matrix.Mul(l, l.T()), a).MaxAbs()
		fmt.Printf("  max |L*Lᵀ - A| = %.2e, ops per processor %v\n", diff, f.Ops())
	}
	return nil
}
