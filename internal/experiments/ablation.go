package experiments

import (
	"fmt"
	"strings"

	"hetgrid/internal/distribution"
	"hetgrid/internal/sim"
)

// PanelAblationRow is one panel size in an ablation run.
type PanelAblationRow struct {
	Bp, Bq          int
	PanelEfficiency float64
	Makespan        float64
	Messages        int
}

// PanelAblation compares candidate panel sizes for a fixed grid and matrix:
// small panels round the rational shares coarsely (poor balance), while the
// search target of BestPanel recovers the continuous optimum. Each panel is
// simulated end-to-end on the MM kernel.
type PanelAblation struct {
	P, Q, NB int
	Rows     []PanelAblationRow
}

// RunPanelAblation evaluates every admissible panel with bp ≤ maxBp and
// bq ≤ maxBq on the matrix-multiplication kernel.
func RunPanelAblation(times []float64, p, q, nb, maxBp, maxBq int, net sim.Config, blockBytes float64) (*PanelAblation, error) {
	sc, err := newScenario(times, p, q, nb, net, blockBytes)
	if err != nil {
		return nil, err
	}
	out := &PanelAblation{P: p, Q: q, NB: nb}
	for bp := p; bp <= min(maxBp, nb); bp++ {
		for bq := q; bq <= min(maxBq, nb); bq++ {
			pan, err := distribution.NewPanel(sc.sol, bp, bq,
				distribution.Contiguous, distribution.Contiguous)
			if err != nil {
				continue
			}
			d, err := pan.Distribution(nb, nb)
			if err != nil {
				continue
			}
			simRes, err := sc.simulateMM(d)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, PanelAblationRow{
				Bp: bp, Bq: bq,
				PanelEfficiency: pan.PanelEfficiency(),
				Makespan:        simRes.Makespan,
				Messages:        simRes.Stats.Messages,
			})
		}
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("experiments: no admissible panel up to %d×%d", maxBp, maxBq)
	}
	return out, nil
}

// BestRow returns the row with the smallest makespan.
func (a *PanelAblation) BestRow() PanelAblationRow {
	best := a.Rows[0]
	for _, r := range a.Rows[1:] {
		if r.Makespan < best.Makespan {
			best = r
		}
	}
	return best
}

// Table renders the ablation.
func (a *PanelAblation) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "panel-size ablation on %d×%d grid, %d×%d blocks (simulated MM)\n", a.P, a.Q, a.NB, a.NB)
	fmt.Fprintf(&sb, "%-8s %14s %12s %9s\n", "panel", "panel eff", "makespan", "msgs")
	for _, r := range a.Rows {
		fmt.Fprintf(&sb, "%2d×%-5d %14.4f %12.2f %9d\n", r.Bp, r.Bq, r.PanelEfficiency, r.Makespan, r.Messages)
	}
	return sb.String()
}

// CSV renders one line per panel.
func (a *PanelAblation) CSV() string {
	var sb strings.Builder
	sb.WriteString("bp,bq,panel_efficiency,makespan,messages\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&sb, "%d,%d,%.6f,%.4f,%d\n", r.Bp, r.Bq, r.PanelEfficiency, r.Makespan, r.Messages)
	}
	return sb.String()
}

// GranularityRow is one block-matrix size in a granularity sweep.
type GranularityRow struct {
	NB int
	// NormalizedMakespan is makespan divided by nb³ — the per-flop price;
	// it exposes the latency overhead at coarse granularity and the
	// rounding losses at very fine block counts.
	Makespan, NormalizedMakespan float64
	Messages                     int
}

// GranularitySweep evaluates how the block count nb (for a fixed matrix
// size, i.e. varying block size r inversely) trades balance granularity
// against communication overhead.
type GranularitySweep struct {
	P, Q int
	Rows []GranularityRow
}

// RunGranularitySweep simulates MM for each block count, keeping total work
// constant by scaling the per-block cost with (N/nb)³ ∝ 1/nb³ relative
// units: cycle-times are divided by nb³ so every run computes the "same"
// matrix and makespans are directly comparable.
func RunGranularitySweep(times []float64, p, q int, nbs []int, net sim.Config, blockBytes float64) (*GranularitySweep, error) {
	out := &GranularitySweep{P: p, Q: q}
	for _, nb := range nbs {
		if nb < p || nb < q {
			return nil, fmt.Errorf("experiments: nb %d smaller than grid", nb)
		}
		scaled := make([]float64, len(times))
		cube := float64(nb) * float64(nb) * float64(nb)
		for i, t := range times {
			scaled[i] = t / cube * 1e6 // keep magnitudes reasonable
		}
		sc, err := newScenario(scaled, p, q, nb, net, blockBytes)
		if err != nil {
			return nil, err
		}
		maxB := 4 * max(p, q)
		d, err := sc.bestPanel(maxB, maxB, distribution.Contiguous)
		if err != nil {
			return nil, err
		}
		simRes, err := sc.simulateMM(d)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, GranularityRow{
			NB:                 nb,
			Makespan:           simRes.Makespan,
			NormalizedMakespan: simRes.Makespan / cube,
			Messages:           simRes.Stats.Messages,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (g *GranularitySweep) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "granularity sweep on %d×%d grid (fixed total work, simulated MM)\n", g.P, g.Q)
	fmt.Fprintf(&sb, "%-6s %12s %9s\n", "nb", "makespan", "msgs")
	for _, r := range g.Rows {
		fmt.Fprintf(&sb, "%-6d %12.2f %9d\n", r.NB, r.Makespan, r.Messages)
	}
	return sb.String()
}

// CSV renders one line per block count.
func (g *GranularitySweep) CSV() string {
	var sb strings.Builder
	sb.WriteString("nb,makespan,normalized_makespan,messages\n")
	for _, r := range g.Rows {
		fmt.Fprintf(&sb, "%d,%.4f,%.8f,%d\n", r.NB, r.Makespan, r.NormalizedMakespan, r.Messages)
	}
	return sb.String()
}
