// Package distribution maps the blocks of a dense matrix onto the
// processors of a heterogeneous 2D grid.
//
// A matrix of N×N elements is tiled into nbr×nbc square blocks of r×r
// elements (the ScaLAPACK unit of work). A Distribution assigns every block
// to a processor of a p×q grid. Three families are provided:
//
//   - Uniform block-cyclic: the homogeneous ScaLAPACK CYCLIC(r) layout,
//     which ignores processor speeds (the paper's baseline).
//   - Heterogeneous block-panel: the paper's contribution — panels of
//     B_p×B_q blocks distributed cyclically along both grid dimensions,
//     with processor P_ij owning an r_i×c_j rectangle of each panel so that
//     the grid communication pattern (4 direct neighbours) is preserved.
//   - Kalinov–Lastovetsky heterogeneous block-cyclic: per-column
//     independent 1D row balance plus harmonic-mean column balance, which
//     balances load well but breaks the 4-neighbour pattern.
package distribution

import (
	"fmt"
	"sort"
	"strings"

	"hetgrid/internal/grid"
)

// Distribution assigns each block of an nbr×nbc block matrix to a processor
// of a p×q grid.
type Distribution interface {
	// Dims returns the processor grid dimensions.
	Dims() (p, q int)
	// Blocks returns the block matrix dimensions.
	Blocks() (nbr, nbc int)
	// Owner returns the grid coordinates of the processor owning block
	// (bi, bj).
	Owner(bi, bj int) (pi, pj int)
	// Name identifies the distribution in reports.
	Name() string
}

// Product is a distribution expressible as the cross product of a block-row
// owner map and a block-column owner map: Owner(bi,bj) =
// (RowOwner[bi], ColOwner[bj]). Both the uniform block-cyclic layout and
// the paper's heterogeneous block-panel layout are Products; this structure
// is exactly what guarantees the 4-neighbour communication pattern.
type Product struct {
	P, Q     int
	RowOwner []int
	ColOwner []int
	Label    string
}

// NewProduct validates the owner maps and returns the distribution.
func NewProduct(p, q int, rowOwner, colOwner []int, label string) (*Product, error) {
	if p <= 0 || q <= 0 {
		return nil, fmt.Errorf("distribution: invalid grid %d×%d", p, q)
	}
	if len(rowOwner) == 0 || len(colOwner) == 0 {
		return nil, fmt.Errorf("distribution: empty owner maps")
	}
	for i, o := range rowOwner {
		if o < 0 || o >= p {
			return nil, fmt.Errorf("distribution: row owner[%d] = %d outside grid of %d rows", i, o, p)
		}
	}
	for j, o := range colOwner {
		if o < 0 || o >= q {
			return nil, fmt.Errorf("distribution: column owner[%d] = %d outside grid of %d columns", j, o, q)
		}
	}
	return &Product{
		P: p, Q: q,
		RowOwner: append([]int(nil), rowOwner...),
		ColOwner: append([]int(nil), colOwner...),
		Label:    label,
	}, nil
}

// Dims implements Distribution.
func (d *Product) Dims() (int, int) { return d.P, d.Q }

// Blocks implements Distribution.
func (d *Product) Blocks() (int, int) { return len(d.RowOwner), len(d.ColOwner) }

// Owner implements Distribution.
func (d *Product) Owner(bi, bj int) (int, int) {
	return d.RowOwner[bi], d.ColOwner[bj]
}

// Name implements Distribution.
func (d *Product) Name() string { return d.Label }

// UniformBlockCyclic returns the homogeneous ScaLAPACK CYCLIC(r)
// distribution: block (bi, bj) belongs to processor (bi mod p, bj mod q).
func UniformBlockCyclic(p, q, nbr, nbc int) (*Product, error) {
	if nbr <= 0 || nbc <= 0 {
		return nil, fmt.Errorf("distribution: invalid block matrix %d×%d", nbr, nbc)
	}
	rowOwner := make([]int, nbr)
	for i := range rowOwner {
		rowOwner[i] = i % p
	}
	colOwner := make([]int, nbc)
	for j := range colOwner {
		colOwner[j] = j % q
	}
	return NewProduct(p, q, rowOwner, colOwner, "uniform-cyclic")
}

// NeighborStats describes the horizontal/vertical communication pattern a
// distribution induces. For each processor it examines the owners of the
// blocks immediately west (left) and north (above) of the processor's own
// blocks.
//
// The paper's grid communication pattern (§3.1.2: "each processor
// communicates only with its four direct neighbors") requires that all west
// neighbours of a processor lie in its own grid row and all north
// neighbours in its own grid column — i.e. horizontal traffic stays inside
// grid rows and vertical traffic inside grid columns. Any product
// distribution satisfies this by construction; the Kalinov–Lastovetsky
// distribution does not (its Figure-3 processor has two west neighbours in
// different grid rows).
type NeighborStats struct {
	// MaxWest and MaxNorth are the maximum numbers of distinct west/north
	// neighbouring owners over all processors (the paper counts the KL
	// example processor as having "two west neighbors instead of one").
	MaxWest, MaxNorth int
	// CrossRowWest is the maximum number of west neighbours lying in a
	// different grid row than the receiving processor; CrossColNorth the
	// analogue for north neighbours and grid columns. Both are 0 exactly
	// when the grid communication pattern holds.
	CrossRowWest, CrossColNorth int
	// GridPattern is true when CrossRowWest == 0 and CrossColNorth == 0.
	GridPattern bool
}

// ComputeNeighborStats scans the block matrix and classifies the west and
// north neighbouring owners of every processor.
func ComputeNeighborStats(d Distribution) *NeighborStats {
	p, q := d.Dims()
	nbr, nbc := d.Blocks()
	type pset map[int]struct{}
	west := make([]pset, p*q)
	north := make([]pset, p*q)
	for i := range west {
		west[i] = pset{}
		north[i] = pset{}
	}
	id := func(pi, pj int) int { return pi*q + pj }
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			pi, pj := d.Owner(bi, bj)
			self := id(pi, pj)
			if bj > 0 {
				wi, wj := d.Owner(bi, bj-1)
				if w := id(wi, wj); w != self {
					west[self][w] = struct{}{}
				}
			}
			if bi > 0 {
				ni, nj := d.Owner(bi-1, bj)
				if n := id(ni, nj); n != self {
					north[self][n] = struct{}{}
				}
			}
		}
	}
	stats := &NeighborStats{}
	for self := range west {
		selfRow, selfCol := self/q, self%q
		if len(west[self]) > stats.MaxWest {
			stats.MaxWest = len(west[self])
		}
		if len(north[self]) > stats.MaxNorth {
			stats.MaxNorth = len(north[self])
		}
		crossW := 0
		for w := range west[self] {
			if w/q != selfRow {
				crossW++
			}
		}
		if crossW > stats.CrossRowWest {
			stats.CrossRowWest = crossW
		}
		crossN := 0
		for n := range north[self] {
			if n%q != selfCol {
				crossN++
			}
		}
		if crossN > stats.CrossColNorth {
			stats.CrossColNorth = crossN
		}
	}
	stats.GridPattern = stats.CrossRowWest == 0 && stats.CrossColNorth == 0
	return stats
}

// Render draws the owner map as text, one character pair per block,
// labelling each block with its owner's cycle-time from the arrangement
// (like the paper's Figures 2 and 4) when arr is non-nil, or with "pi,pj"
// coordinates otherwise. Intended for small block matrices.
func Render(d Distribution, arr *grid.Arrangement) string {
	nbr, nbc := d.Blocks()
	var sb strings.Builder
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			pi, pj := d.Owner(bi, bj)
			if arr != nil {
				fmt.Fprintf(&sb, "%4g", arr.T[pi][pj])
			} else {
				fmt.Fprintf(&sb, " %d,%d", pi, pj)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// validate checks an arbitrary Distribution implementation for the
// invariants the kernels rely on: positive dimensions, every Owner result
// inside the grid, and (so that broadcasts terminate) at least one block
// per matrix. NewLayout applies it, so a user-supplied implementation is
// checked before any schedule is derived from it; the built-in
// constructors enforce these by construction.
func validate(d Distribution) error {
	p, q := d.Dims()
	if p <= 0 || q <= 0 {
		return fmt.Errorf("distribution: invalid grid %d×%d", p, q)
	}
	nbr, nbc := d.Blocks()
	if nbr <= 0 || nbc <= 0 {
		return fmt.Errorf("distribution: invalid block matrix %d×%d", nbr, nbc)
	}
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			pi, pj := d.Owner(bi, bj)
			if pi < 0 || pi >= p || pj < 0 || pj >= q {
				return fmt.Errorf("distribution: block (%d,%d) owned by (%d,%d) outside %d×%d grid",
					bi, bj, pi, pj, p, q)
			}
		}
	}
	return nil
}

// roundShares converts positive rational shares into non-negative integers
// summing to total using largest-remainder rounding: each share receives
// its floor, and the remaining units go to the largest fractional parts
// (ties to the lower index). This is the "round while preserving
// Σr_i = N" step of §4.1.
func roundShares(shares []float64, total int) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("distribution: negative total %d", total)
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("distribution: no shares")
	}
	sum := 0.0
	for i, s := range shares {
		if !(s > 0) {
			return nil, fmt.Errorf("distribution: share[%d] = %v must be positive", i, s)
		}
		sum += s
	}
	out := make([]int, len(shares))
	type frac struct {
		rem float64
		idx int
	}
	fracs := make([]frac, len(shares))
	assigned := 0
	for i, s := range shares {
		exact := s / sum * float64(total)
		out[i] = int(exact)
		fracs[i] = frac{rem: exact - float64(out[i]), idx: i}
		assigned += out[i]
	}
	sort.SliceStable(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for k := 0; assigned < total; k++ {
		out[fracs[k%len(fracs)].idx]++
		assigned++
	}
	return out, nil
}
