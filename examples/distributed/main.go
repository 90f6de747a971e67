// Real distributed-memory execution: every grid processor runs as its own
// goroutine with strictly private block storage, and all data moves through
// messages — the miniature of the heterogeneous ScaLAPACK the paper lays
// groundwork for. The example factors a system under the paper's panel
// distribution, solves it, and reports the actual message traffic of each
// distribution family.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"hetgrid"
	"hetgrid/internal/matrix"
)

func main() {
	log.SetFlags(0)

	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.PlanExact)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := plan.Panel(4, 3, hetgrid.LU)
	if err != nil {
		log.Fatal(err)
	}

	const nb, r = 8, 8
	n := nb * r
	rng := rand.New(rand.NewSource(3))
	a := matrix.RandomWellConditioned(n, rng)
	xTrue := matrix.Random(n, 1, rng)
	rhs := matrix.Mul(a, xTrue)

	fmt.Printf("solving a %d×%d system on 4 goroutine 'workstations' (2×2 grid)\n\n", n, n)

	panel, err := layout.Distribute(nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	uniform, err := hetgrid.Uniform(2, 2, nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	kl, err := hetgrid.KalinovLastovetsky(plan, nb, nb)
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []struct {
		name string
		d    hetgrid.Distribution
	}{
		{"uniform block-cyclic", uniform},
		{"kalinov-lastovetsky", kl},
		{"heterogeneous panel", panel},
	} {
		f, stats, err := hetgrid.DistributedFactor(hetgrid.LU, c.d, a, r)
		if err != nil {
			log.Fatal(err)
		}
		packed := f.Packed()
		x := rhs.Clone()
		packed.SolveLowerUnit(x)
		if err := packed.SolveUpper(x); err != nil {
			log.Fatal(err)
		}
		maxErr := 0.0
		for i := 0; i < n; i++ {
			maxErr = math.Max(maxErr, math.Abs(x.At(i, 0)-xTrue.At(i, 0)))
		}
		fmt.Printf("%-22s %5d messages, %8d bytes moved, max |x-x*| = %.2e\n",
			c.name, stats.Messages, stats.Bytes, maxErr)
	}

	// The distributed product as well, with a correctness check. Span
	// recording is switched on here, so the stats also carry the timeline
	// of the run — the record a simulated run writes too.
	b := matrix.Random(n, n, rng)
	cMat, stats, err := hetgrid.DistributedMultiply(panel, a, b, r,
		hetgrid.WithBroadcast(hetgrid.TreeBroadcast), hetgrid.WithSpans())
	if err != nil {
		log.Fatal(err)
	}
	diff := matrix.Sub(cMat, matrix.Mul(a, b)).MaxAbs()
	fmt.Printf("\ndistributed C = A·B on the panel layout (tree broadcast): %d messages, max |ΔC| = %.2e\n",
		stats.Messages, diff)

	fmt.Println("\nper-rank traffic (instrumented transport):")
	fmt.Printf("  %4s %22s %22s\n", "rank", "sent (msgs / bytes)", "recv (msgs / bytes)")
	for i, rs := range stats.Ranks {
		fmt.Printf("  %4d %10d / %9d %10d / %9d\n", i, rs.MsgsSent, rs.BytesSent, rs.MsgsRecv, rs.BytesRecv)
	}

	traceFile := filepath.Join(os.TempDir(), "distributed-mm-trace.json")
	f, err := os.Create(traceFile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := hetgrid.WriteChromeTrace(f, stats.Spans); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote a chrome://tracing timeline of the run to %s\n", traceFile)
	fmt.Println("every block lived on exactly one goroutine; results came back via messages only")
}
