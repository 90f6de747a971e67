package distribution

import (
	"fmt"
	"slices"
	"strconv"
)

// The step schedule: everything about a kernel step that follows from block
// ownership alone — who owns what, who sends which panel to whom, which
// blocks each rank computes on. It is a table of facts, not a program: the
// comm-volume model folds over the messages, the simulator prices them in
// virtual time, the engine delivers them over a transport and the drift
// loop counts the block lists, each in its own loop and its own call order.
// The serial replays in internal/kernels deliberately do not read it — they
// are the oracle the other four are judged against.

// OwnerRank returns the flat rank pi·q+pj of the processor owning block
// (bi, bj).
func OwnerRank(d Distribution, bi, bj int) int {
	_, q := d.Dims()
	pi, pj := d.Owner(bi, bj)
	return pi*q + pj
}

// Layout is a distribution of a square nb×nb block matrix flattened once
// into a rank-per-block table.
type Layout struct {
	// NB is the block order; Ranks the number of processors p·q.
	NB, Ranks int
	owner     []int
}

// NewLayout validates d (owners inside the grid, square block matrix) and
// tabulates its owners.
func NewLayout(d Distribution) (*Layout, error) {
	if err := Validate(d); err != nil {
		return nil, err
	}
	nb, nbc := d.Blocks()
	if nb != nbc {
		return nil, fmt.Errorf("distribution: the kernels need a square block matrix, got %d×%d", nb, nbc)
	}
	p, q := d.Dims()
	l := &Layout{NB: nb, Ranks: p * q, owner: make([]int, nb*nb)}
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			l.owner[bi*nb+bj] = OwnerRank(d, bi, bj)
		}
	}
	return l, nil
}

// Owner returns the rank owning block (bi, bj).
func (l *Layout) Owner(bi, bj int) int { return l.owner[bi*l.NB+bj] }

// owners lists the distinct ranks among at(0), …, at(count-1) in
// first-appearance order — the order every broadcast chain is built from.
func (l *Layout) owners(count int, at func(i int) int) []int {
	seen := make([]bool, l.Ranks)
	var out []int
	for i := 0; i < count; i++ {
		if n := at(i); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// RowOwners returns the distinct owners of blocks (bi, bj), bj ≥ jmin — the
// receivers of a horizontal broadcast of a block of row bi.
func (l *Layout) RowOwners(bi, jmin int) []int {
	return l.owners(l.NB-jmin, func(i int) int { return l.Owner(bi, jmin+i) })
}

// colOwners returns the distinct owners of blocks (bi, bj), bi ≥ imin — the
// receivers of a vertical broadcast of a block of column bj.
func (l *Layout) colOwners(bj, imin int) []int {
	return l.owners(l.NB-imin, func(i int) int { return l.Owner(imin+i, bj) })
}

// Msg is one panel message: Root sends the stacked Blocks (block-row or
// block-column indices of the panel, ascending) to Recv. Recv lists the
// ranks that consume the blocks, in first-appearance order; Root may be
// among them, and receives nothing.
type Msg struct {
	Root   int
	Recv   []int
	Blocks []int
}

// Fanout is the number of point-to-point deliveries: receivers other than
// the root.
func (m Msg) Fanout() int {
	n := 0
	for _, r := range m.Recv {
		if r != m.Root {
			n++
		}
	}
	return n
}

// group folds panel blocks lo..NB-1 into messages: blocks sharing a root
// and a receiver list travel as one stacked message (the ScaLAPACK panel
// message), and messages come in order of their first block. For product
// distributions every root's blocks share one receiver list (its grid row
// or column), so each root sends once per panel; Kalinov–Lastovetsky's
// misaligned row boundaries split panels into more messages to more
// parties — the extra-neighbour penalty of the paper's Figure 3.
func (l *Layout) group(lo int, root func(i int) int, recv func(i int) []int) []Msg {
	var msgs []Msg
	for i := lo; i < l.NB; i++ {
		r, rs := root(i), recv(i)
		at := slices.IndexFunc(msgs, func(m Msg) bool { return m.Root == r && slices.Equal(m.Recv, rs) })
		if at < 0 {
			at = len(msgs)
			msgs = append(msgs, Msg{Root: r, Recv: rs})
		}
		msgs[at].Blocks = append(msgs[at].Blocks, i)
	}
	return msgs
}

// rowPanel is the horizontal broadcast of column col's blocks (bi, col),
// bi ≥ lo, each to the owners of its block row from column jmin on.
func (l *Layout) rowPanel(col, lo, jmin int) []Msg {
	return l.group(lo,
		func(bi int) int { return l.Owner(bi, col) },
		func(bi int) []int { return l.RowOwners(bi, jmin) })
}

// colPanel is the vertical broadcast of row row's blocks (row, bj), bj ≥ lo,
// each to the owners of its block column from row imin on.
func (l *Layout) colPanel(row, lo, imin int) []Msg {
	return l.group(lo,
		func(bj int) int { return l.Owner(row, bj) },
		func(bj int) []int { return l.colOwners(bj, imin) })
}

// diagDown sends the factored diagonal block (k, k) to the owners of the
// sub-diagonal blocks of column k, who need it for their panel solves.
func (l *Layout) diagDown(k int) Msg {
	return Msg{Root: l.Owner(k, k), Recv: l.colOwners(k, k+1), Blocks: []int{k}}
}

// MMPanels returns step k's messages of the outer-product multiplication:
// the A(·,k) panel along block rows and the B(k,·) panel down block columns,
// both to the owners of the whole C matrix.
func (l *Layout) MMPanels(k int) (a, b []Msg) {
	return l.rowPanel(k, 0, 0), l.colPanel(k, 0, 0)
}

// LUPanels returns step k's messages of the right-looking LU: the diagonal
// block down column k (for the L solves) and along row k (for the U
// solves), then the L panel along the trailing rows and the U panel down
// the trailing columns.
func (l *Layout) LUPanels(k int) (diagDown, diagRight Msg, lPanel, uPanel []Msg) {
	diagRight = Msg{Root: l.Owner(k, k), Recv: l.RowOwners(k, k), Blocks: []int{k}}
	return l.diagDown(k), diagRight, l.rowPanel(k, k+1, k), l.colPanel(k, k+1, k)
}

// CholeskyPanels returns step k's messages of the right-looking Cholesky:
// the diagonal block down column k, then each solved L(i,k) to the ranks
// whose trailing lower-triangle updates read it — the owners of row i
// (columns k+1..i) and of column i (rows i..nb-1), the symmetric pattern.
func (l *Layout) CholeskyPanels(k int) (diagDown Msg, lPanel []Msg) {
	lPanel = l.group(k+1,
		func(bi int) int { return l.Owner(bi, k) },
		func(bi int) []int {
			across := bi - k
			return l.owners(across+l.NB-bi, func(i int) int {
				if i < across {
					return l.Owner(bi, k+1+i)
				}
				return l.Owner(bi+i-across, bi)
			})
		})
	return l.diagDown(k), lPanel
}

// Section is one compute section of a kernel step. The engine's compute
// span and the simulator's carry the same At(k), so a predicted and a
// measured timeline join on (rank, name).
type Section string

const (
	MMUpdate   Section = "mm update"
	LUFactor   Section = "lu factor"
	LULSolve   Section = "lu lsolve"
	LUUSolve   Section = "lu usolve"
	LUUpdate   Section = "lu update"
	CholFactor Section = "chol factor"
	CholSolve  Section = "chol solve"
	CholUpdate Section = "chol update"
)

// At names the section at step k: "lu update k=3".
func (s Section) At(k int) string { return string(s) + " k=" + strconv.Itoa(k) }

// Region classes the blocks a panel kernel works on at step k.
type Region int

const (
	// All is the whole block matrix at every step (outer-product
	// multiplication).
	All Region = iota
	// Trailing is the trailing submatrix bi ≥ k, bj ≥ k (LU, QR).
	Trailing
	// TrailingLower is the lower triangle of the trailing submatrix,
	// bi ≥ bj ≥ k (Cholesky).
	TrailingLower
)

// Contains reports whether block (bi, bj) is in the region at step k.
func (r Region) Contains(bi, bj, k int) bool {
	switch r {
	case Trailing:
		return bi >= k && bj >= k
	case TrailingLower:
		return bi >= bj && bj >= k
	default:
		return true
	}
}

// Orderings returns the panel row/column orderings suited to the region:
// Contiguous for the full-matrix sweep, Interleaved for the shrinking
// factorizations (so trailing submatrices stay balanced, §3.2.2).
func (r Region) Orderings() (Ordering, Ordering) {
	if r == All {
		return Contiguous, Contiguous
	}
	return Interleaved, Interleaved
}

// Blocks returns, per rank, the blocks of the region at step k in row-major
// order: everything the rank's step touches (factor, solves and update).
func (l *Layout) Blocks(r Region, k int) [][][2]int {
	out := make([][][2]int, l.Ranks)
	for bi := 0; bi < l.NB; bi++ {
		for bj := 0; bj < l.NB; bj++ {
			if r.Contains(bi, bj, k) {
				n := l.Owner(bi, bj)
				out[n] = append(out[n], [2]int{bi, bj})
			}
		}
	}
	return out
}

// Update returns the per-rank block lists of step k's trailing update: the
// region past the panel row and column — what remains active at step k+1 —
// or the whole matrix for All.
func (l *Layout) Update(r Region, k int) [][][2]int {
	if r != All {
		k++
	}
	return l.Blocks(r, k)
}

// ColBelow returns, per rank, the block rows bi > k whose block (bi, k) the
// rank owns — the panel-solve lists of the factorizations.
func (l *Layout) ColBelow(k int) [][]int {
	out := make([][]int, l.Ranks)
	for bi := k + 1; bi < l.NB; bi++ {
		n := l.Owner(bi, k)
		out[n] = append(out[n], bi)
	}
	return out
}

// RowRight returns, per rank, the block columns bj > k whose block (k, bj)
// the rank owns — LU's row-solve lists.
func (l *Layout) RowRight(k int) [][]int {
	out := make([][]int, l.Ranks)
	for bj := k + 1; bj < l.NB; bj++ {
		n := l.Owner(k, bj)
		out[n] = append(out[n], bj)
	}
	return out
}
