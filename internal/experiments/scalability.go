package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hetgrid/internal/distribution"
	"hetgrid/internal/sim"
)

// ShapeRow is one grid shape in a scalability comparison.
type ShapeRow struct {
	P, Q       int
	Makespan   float64
	CompBound  float64
	Messages   int
	Bytes      float64
	Efficiency float64
}

// ShapeComparison holds the 1D-vs-2D experiment: the same processors and
// matrix under every factorization of the processor count. The paper
// configures HNOWs as 2D grids "for scalability reasons" (§2.2) — the
// perimeter-to-area effect makes squarer grids communicate less per unit of
// computation, which this experiment quantifies.
type ShapeComparison struct {
	N    int // processor count
	NB   int
	Rows []ShapeRow
}

// RunShapeComparison simulates the outer-product multiplication for every
// grid shape p×q = n on nb×nb blocks with the given network, drawing the
// cycle-times uniformly from (0,1] with the given seed.
func RunShapeComparison(n, nb int, net sim.Config, blockBytes float64, seed int64) (*ShapeComparison, error) {
	if n <= 0 || nb <= 0 {
		return nil, fmt.Errorf("experiments: invalid shape comparison n=%d nb=%d", n, nb)
	}
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	for i := range times {
		times[i] = 1 - rng.Float64()
	}
	cmp := &ShapeComparison{N: n, NB: nb}
	for p := 1; p <= n; p++ {
		if n%p != 0 {
			continue
		}
		q := n / p
		sc, err := newScenario(times, p, q, nb, net, blockBytes)
		if err != nil {
			return nil, err
		}
		d, err := sc.bestPanel(4*p, 4*q, distribution.Contiguous)
		if err != nil {
			return nil, err
		}
		simRes, err := sc.simulateMM(d)
		if err != nil {
			return nil, err
		}
		cmp.Rows = append(cmp.Rows, ShapeRow{
			P: p, Q: q,
			Makespan:   simRes.Makespan,
			CompBound:  simRes.CompBound,
			Messages:   simRes.Stats.Messages,
			Bytes:      simRes.Stats.Bytes,
			Efficiency: simRes.Efficiency(),
		})
	}
	return cmp, nil
}

// Best returns the row with the smallest makespan.
func (c *ShapeComparison) Best() ShapeRow {
	best := c.Rows[0]
	for _, r := range c.Rows[1:] {
		if r.Makespan < best.Makespan {
			best = r
		}
	}
	return best
}

// Table renders the comparison.
func (c *ShapeComparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "grid shapes for %d processors, %d×%d blocks (simulated MM)\n", c.N, c.NB, c.NB)
	fmt.Fprintf(&sb, "%-8s %12s %12s %10s %9s %14s\n", "shape", "makespan", "comp bound", "eff", "msgs", "bytes")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%2d×%-5d %12.2f %12.2f %10.3f %9d %14.0f\n",
			r.P, r.Q, r.Makespan, r.CompBound, r.Efficiency, r.Messages, r.Bytes)
	}
	return sb.String()
}

// CSV renders one line per shape.
func (c *ShapeComparison) CSV() string {
	var sb strings.Builder
	sb.WriteString("p,q,makespan,comp_bound,efficiency,messages,bytes\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%d,%d,%.4f,%.4f,%.4f,%d,%.0f\n",
			r.P, r.Q, r.Makespan, r.CompBound, r.Efficiency, r.Messages, r.Bytes)
	}
	return sb.String()
}
