package distribution

import (
	"fmt"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
	"hetgrid/internal/onedim"
)

// Ordering selects how the block rows (or columns) owned by each grid row
// (or column) are laid out inside a panel.
type Ordering int

const (
	// Contiguous groups each processor's blocks together (the layout of the
	// paper's Figures 1, 2 and 4 rows). For the outer-product matrix
	// multiplication the ordering is irrelevant (§3.2.2), so contiguous is
	// the default.
	Contiguous Ordering = iota
	// Interleaved spreads each processor's blocks through the panel using
	// the optimal 1D greedy over aggregate cycle-times — the ABAABA pattern
	// of §3.2.2 that keeps the load balanced at every step of the LU/QR
	// factorizations, whose active matrix shrinks as columns are eliminated.
	Interleaved
)

// Panel is the paper's heterogeneous block panel: a B_p×B_q rectangle of
// r×r blocks in which grid row i owns RowCounts[i] panel rows and grid
// column j owns ColCounts[j] panel columns, so that processor P_ij owns an
// RowCounts[i]×ColCounts[j] sub-rectangle. Panels tile the whole block
// matrix cyclically in both dimensions.
type Panel struct {
	Arr *grid.Arrangement
	// Bp and Bq are the panel dimensions in blocks.
	Bp, Bq int
	// RowCounts[i] is the number of panel rows owned by grid row i
	// (ΣRowCounts = Bp); ColCounts likewise for columns.
	RowCounts, ColCounts []int
	// RowOrder[k] is the grid row owning the k-th row of the panel;
	// ColOrder likewise. These realize the chosen Ordering.
	RowOrder, ColOrder []int
}

// NewPanel builds a panel from a load-balancing solution: the rational
// shares sol.R and sol.C are rounded to integers summing to bp and bq with
// largest-remainder rounding (§4.1), and the rows/columns are laid out per
// the given orderings.
func NewPanel(sol *core.Solution, bp, bq int, rowOrd, colOrd Ordering) (*Panel, error) {
	if bp < len(sol.R) || bq < len(sol.C) {
		return nil, fmt.Errorf("distribution: panel %d×%d too small for a %d×%d grid (every processor needs at least one block)",
			bp, bq, len(sol.R), len(sol.C))
	}
	rowCounts, err := roundSharesPositive(sol.R, bp)
	if err != nil {
		return nil, err
	}
	colCounts, err := roundSharesPositive(sol.C, bq)
	if err != nil {
		return nil, err
	}
	p := &Panel{
		Arr:       sol.Arr,
		Bp:        bp,
		Bq:        bq,
		RowCounts: rowCounts,
		ColCounts: colCounts,
	}
	p.RowOrder, err = p.rowOrder(rowOrd)
	if err != nil {
		return nil, err
	}
	p.ColOrder, err = p.colOrder(colOrd)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// roundSharesPositive rounds shares to integers summing to total while
// guaranteeing every entry is at least 1 (each grid row/column must own at
// least one block row/column, or the grid would degenerate).
func roundSharesPositive(shares []float64, total int) ([]int, error) {
	counts, err := roundShares(shares, total)
	if err != nil {
		return nil, err
	}
	// Steal from the largest entries to fix any zeros.
	for {
		zero := -1
		for i, c := range counts {
			if c == 0 {
				zero = i
				break
			}
		}
		if zero < 0 {
			return counts, nil
		}
		max, maxIdx := 0, -1
		for i, c := range counts {
			if c > max {
				max, maxIdx = c, i
			}
		}
		if max <= 1 {
			return nil, fmt.Errorf("distribution: cannot give every processor a block (%d blocks for %d processors)", total, len(shares))
		}
		counts[maxIdx]--
		counts[zero]++
	}
}

// rowOrder lays out the panel rows.
func (p *Panel) rowOrder(ord Ordering) ([]int, error) {
	switch ord {
	case Contiguous:
		return contiguousOrder(p.RowCounts), nil
	case Interleaved:
		// Aggregate cycle-time of grid row i: its processors work on their
		// column shares concurrently, so speeds add along the row.
		agg := make([]float64, p.Arr.P)
		for i := 0; i < p.Arr.P; i++ {
			a, err := onedim.AggregateCycleTime(p.ColCounts, p.Arr.T[i])
			if err != nil {
				return nil, err
			}
			agg[i] = a
		}
		return cappedSequence(p.RowCounts, agg), nil
	default:
		return nil, fmt.Errorf("distribution: unknown ordering %d", ord)
	}
}

// colOrder lays out the panel columns.
func (p *Panel) colOrder(ord Ordering) ([]int, error) {
	switch ord {
	case Contiguous:
		return contiguousOrder(p.ColCounts), nil
	case Interleaved:
		// Aggregate cycle-time of grid column j (§3.2.2): RowCounts[i]
		// blocks at cycle-time t_ij act as one processor whose speed is the
		// sum Σ RowCounts[i]/t_ij.
		agg := make([]float64, p.Arr.Q)
		for j := 0; j < p.Arr.Q; j++ {
			col := make([]float64, p.Arr.P)
			for i := 0; i < p.Arr.P; i++ {
				col[i] = p.Arr.T[i][j]
			}
			a, err := onedim.AggregateCycleTime(p.RowCounts, col)
			if err != nil {
				return nil, err
			}
			agg[j] = a
		}
		return cappedSequence(p.ColCounts, agg), nil
	default:
		return nil, fmt.Errorf("distribution: unknown ordering %d", ord)
	}
}

// contiguousOrder expands counts into [0 0 .. 0 1 1 .. 1 ...].
func contiguousOrder(counts []int) []int {
	var out []int
	for i, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, i)
		}
	}
	return out
}

// cappedSequence runs the 1D greedy (next unit to the virtual processor
// that would finish it first) but caps each processor at its precomputed
// count, so the interleaving respects the already-rounded shares. With
// consistent counts and aggregate times this reproduces the paper's ABAABA
// example exactly.
func cappedSequence(counts []int, times []float64) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	assigned := make([]int, len(counts))
	out := make([]int, 0, total)
	for k := 0; k < total; k++ {
		best := -1
		bestCost := 0.0
		for i := range counts {
			if assigned[i] >= counts[i] {
				continue
			}
			cost := (float64(assigned[i]) + 1) * times[i]
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		assigned[best]++
		out = append(out, best)
	}
	return out
}

// Distribution tiles an nbr×nbc block matrix with the panel, cyclically in
// both dimensions (§3.1.2), returning the induced product distribution. The
// panel must not exceed the block matrix: a truncated panel would use only
// a prefix of the within-panel pattern and destroy the balance the counts
// were rounded for.
func (p *Panel) Distribution(nbr, nbc int) (*Product, error) {
	if nbr <= 0 || nbc <= 0 {
		return nil, fmt.Errorf("distribution: invalid block matrix %d×%d", nbr, nbc)
	}
	if p.Bp > nbr || p.Bq > nbc {
		return nil, fmt.Errorf("distribution: panel %d×%d larger than block matrix %d×%d", p.Bp, p.Bq, nbr, nbc)
	}
	rowOwner := make([]int, nbr)
	for bi := range rowOwner {
		rowOwner[bi] = p.RowOrder[bi%p.Bp]
	}
	colOwner := make([]int, nbc)
	for bj := range colOwner {
		colOwner[bj] = p.ColOrder[bj%p.Bq]
	}
	return NewProduct(p.Arr.P, p.Arr.Q, rowOwner, colOwner, "het-panel")
}

// panelWorkload returns max_ij rowCounts[i]·t_ij·colCounts[j], the time
// the slowest processor needs per panel step — the integer analogue of the
// continuous objective, used to compare panel size choices.
func panelWorkload(arr *grid.Arrangement, rowCounts, colCounts []int) float64 {
	max := 0.0
	for i := 0; i < arr.P; i++ {
		for j := 0; j < arr.Q; j++ {
			if v := float64(rowCounts[i]) * arr.T[i][j] * float64(colCounts[j]); v > max {
				max = v
			}
		}
	}
	return max
}

// PanelEfficiency returns the ratio between the aggregate work of one panel
// (Bp·Bq blocks weighted by a perfectly balanced ideal) and the actual
// panel makespan: total-work / (Σ speeds × makespan) where speed_ij =
// 1/t_ij. Equals 1 when every processor is busy the whole panel step.
func (p *Panel) PanelEfficiency() float64 {
	return panelEfficiency(p.Arr, p.Bp, p.Bq, p.RowCounts, p.ColCounts)
}

func panelEfficiency(arr *grid.Arrangement, bp, bq int, rowCounts, colCounts []int) float64 {
	speed := 0.0
	for i := 0; i < arr.P; i++ {
		for j := 0; j < arr.Q; j++ {
			speed += 1 / arr.T[i][j]
		}
	}
	ideal := float64(bp*bq) / speed
	if ms := panelWorkload(arr, rowCounts, colCounts); ms > 0 {
		return ideal / ms
	}
	return 0
}

// BestPanel searches panel sizes bp ≤ maxBp, bq ≤ maxBq (with bp ≥ p and
// bq ≥ q so every processor owns at least a block) and returns the panel
// with the highest PanelEfficiency; ties prefer the smaller panel (smaller
// panels mean finer-grained pipelining). Orderings are applied afterwards
// as in NewPanel.
//
// A candidate's efficiency reads only its counts, and the row counts depend
// on bp alone (the column counts on bq alone), so each dimension is rounded
// once and only the winner is built. NewPanel's orderings cannot reject a
// candidate the rounding accepted: the solution's times are validated and
// every count is ≥ 1, which is all onedim.AggregateCycleTime checks.
func BestPanel(sol *core.Solution, maxBp, maxBq int, rowOrd, colOrd Ordering) (*Panel, error) {
	p, q := len(sol.R), len(sol.C)
	if maxBp < p || maxBq < q {
		return nil, fmt.Errorf("distribution: max panel %d×%d smaller than grid %d×%d", maxBp, maxBq, p, q)
	}
	// A nil entry marks a size the rounding rejects.
	rowCounts := make([][]int, maxBp+1)
	for bp := p; bp <= maxBp; bp++ {
		rowCounts[bp], _ = roundSharesPositive(sol.R, bp)
	}
	colCounts := make([][]int, maxBq+1)
	for bq := q; bq <= maxBq; bq++ {
		colCounts[bq], _ = roundSharesPositive(sol.C, bq)
	}
	bestBp, bestBq := 0, 0
	bestEff := -1.0
	for bp := p; bp <= maxBp; bp++ {
		for bq := q; bq <= maxBq; bq++ {
			if rowCounts[bp] == nil || colCounts[bq] == nil {
				continue
			}
			eff := panelEfficiency(sol.Arr, bp, bq, rowCounts[bp], colCounts[bq])
			if eff > bestEff+1e-12 || (eff > bestEff-1e-12 && bp*bq < bestBp*bestBq) {
				bestBp, bestBq, bestEff = bp, bq, eff
			}
		}
	}
	if bestBp == 0 {
		return nil, fmt.Errorf("distribution: no feasible panel up to %d×%d", maxBp, maxBq)
	}
	return NewPanel(sol, bestBp, bestBq, rowOrd, colOrd)
}
