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
// virtual time, the engine delivers them over a transport, and the drift
// loop and the facade's operation counts read Work, each in its own loop
// and its own call order. The serial replays in internal/kernels
// deliberately do not read it — they are the oracle the readers are judged
// against.

// OwnerRank returns the flat rank pi·q+pj of the processor owning block
// (bi, bj).
func OwnerRank(d Distribution, bi, bj int) int {
	_, q := d.Dims()
	pi, pj := d.Owner(bi, bj)
	return pi*q + pj
}

// Layout is a distribution of a square nb×nb block matrix flattened once
// into a rank-per-block table, kept in row-major and in column-major order
// so that both a block row's and a block column's owners are one
// contiguous slice.
type Layout struct {
	// NB is the block order; Ranks the number of processors p·q.
	NB, Ranks int
	owner     []int // owner[bi·NB+bj]
	ownerT    []int // ownerT[bj·NB+bi]
}

// NewLayout validates d (owners inside the grid, square block matrix) and
// tabulates its owners.
func NewLayout(d Distribution) (*Layout, error) {
	if err := validate(d); err != nil {
		return nil, err
	}
	nb, nbc := d.Blocks()
	if nb != nbc {
		return nil, fmt.Errorf("distribution: the kernels need a square block matrix, got %d×%d", nb, nbc)
	}
	p, q := d.Dims()
	l := &Layout{NB: nb, Ranks: p * q, owner: make([]int, nb*nb), ownerT: make([]int, nb*nb)}
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			n := OwnerRank(d, bi, bj)
			l.owner[bi*nb+bj] = n
			l.ownerT[bj*nb+bi] = n
		}
	}
	return l, nil
}

// Owner returns the rank owning block (bi, bj).
func (l *Layout) Owner(bi, bj int) int { return l.owner[bi*l.NB+bj] }

// row returns the owners of block row bi, by block column.
func (l *Layout) row(bi int) []int { return l.owner[bi*l.NB : (bi+1)*l.NB] }

// col returns the owners of block column bj, by block row.
func (l *Layout) col(bj int) []int { return l.ownerT[bj*l.NB : (bj+1)*l.NB] }

// appendDistinct appends to buf the ranks of owners not yet marked in seen,
// in first-appearance order — the order every broadcast chain is built
// from — and marks them.
func appendDistinct(buf []int, seen []bool, owners []int) []int {
	for _, n := range owners {
		if !seen[n] {
			seen[n] = true
			buf = append(buf, n)
		}
	}
	return buf
}

// distinct returns the distinct ranks of owners in first-appearance order.
func (l *Layout) distinct(owners []int) []int {
	return appendDistinct(nil, make([]bool, l.Ranks), owners)
}

// rowOwners returns the distinct owners of blocks (bi, bj), bj ≥ jmin — the
// receivers of a horizontal broadcast of a block of row bi.
func (l *Layout) rowOwners(bi, jmin int) []int { return l.distinct(l.row(bi)[jmin:]) }

// colOwners returns the distinct owners of blocks (bi, bj), bi ≥ imin — the
// receivers of a vertical broadcast of a block of column bj.
func (l *Layout) colOwners(bj, imin int) []int { return l.distinct(l.col(bj)[imin:]) }

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

// group folds panel blocks lo..NB-1 into messages: block i leaves roots[i]
// for the distinct owners in recv(i)'s one or two owner slices, and blocks
// sharing a root and a receiver list travel as one stacked message (the
// ScaLAPACK panel message); messages come in order of their first block.
// Each block's receivers are scanned into one reused buffer, copied only
// when they start a new message. For product distributions every root's
// blocks share one receiver list (its grid row or column), so each root
// sends once per panel; Kalinov–Lastovetsky's misaligned row boundaries
// split panels into more messages to more parties — the extra-neighbour
// penalty of the paper's Figure 3.
func (l *Layout) group(lo int, roots []int, recv func(i int) (a, b []int)) []Msg {
	seen := make([]bool, l.Ranks)
	buf := make([]int, 0, l.Ranks)
	var msgs []Msg
	for i := lo; i < l.NB; i++ {
		a, b := recv(i)
		buf = appendDistinct(appendDistinct(buf[:0], seen, a), seen, b)
		for _, n := range buf {
			seen[n] = false
		}
		at := len(msgs)
		for j := range msgs {
			if msgs[j].Root == roots[i] && slices.Equal(msgs[j].Recv, buf) {
				at = j
				break
			}
		}
		if at == len(msgs) {
			msgs = append(msgs, Msg{Root: roots[i], Recv: slices.Clone(buf)})
		}
		msgs[at].Blocks = append(msgs[at].Blocks, i)
	}
	return msgs
}

// rowPanel is the horizontal broadcast of column col's blocks (bi, col),
// bi ≥ lo, each to the owners of its block row from column jmin on.
func (l *Layout) rowPanel(col, lo, jmin int) []Msg {
	return l.group(lo, l.col(col), func(bi int) ([]int, []int) { return l.row(bi)[jmin:], nil })
}

// colPanel is the vertical broadcast of row row's blocks (row, bj), bj ≥ lo,
// each to the owners of its block column from row imin on.
func (l *Layout) colPanel(row, lo, imin int) []Msg {
	return l.group(lo, l.row(row), func(bj int) ([]int, []int) { return l.col(bj)[imin:], nil })
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
	diagRight = Msg{Root: l.Owner(k, k), Recv: l.rowOwners(k, k), Blocks: []int{k}}
	return l.diagDown(k), diagRight, l.rowPanel(k, k+1, k), l.colPanel(k, k+1, k)
}

// CholeskyPanels returns step k's messages of the right-looking Cholesky:
// the diagonal block down column k, then each solved L(i,k) to the ranks
// whose trailing lower-triangle updates read it — the owners of row i
// (columns k+1..i) and of column i (rows i..nb-1), the symmetric pattern.
func (l *Layout) CholeskyPanels(k int) (diagDown Msg, lPanel []Msg) {
	lPanel = l.group(k+1, l.col(k), func(bi int) ([]int, []int) { return l.row(bi)[k+1 : bi+1], l.col(bi)[bi:] })
	return l.diagDown(k), lPanel
}

// QRStep is step k of the distributed Householder QR: ScaLAPACK's
// PDGEQRF panel with PDLARFB's trailing update, on the paper's ownership,
// where each rank updates its own trailing blocks.
type QRStep struct {
	// Master, the owner of block (k, k), factors the panel: Gather brings it
	// the blocks of column k from row k down, Scatter takes the packed
	// blocks back to their owners, each grouped by owner, and Tau carries
	// the panel's r tau scalings to rank 0.
	Master          int
	Gather, Scatter []Msg
	Tau             Msg
	// V sends block row bi ≥ k of the panel's compact-WY V to the owners of
	// row bi's trailing blocks, grouped like LU's L panel; T sends Tᵀ to the
	// ranks that end a chain, the owners of the last block row's trailing
	// blocks. Both are rooted at Master.
	V []Msg
	T Msg
	// Chains cover the trailing block columns k+1..NB-1: column k+1's
	// alone first, then the others grouped by owner sequence.
	Chains []Chain
}

// Chain accumulates W = Vᵀ·B for its block columns down their owners: the
// owner of each segment adds its block rows' share to the W the previous
// segment's owner sent it — one message per hop for all of Cols — the last
// forms Tᵀ·W and Back broadcasts it up the column, and every owner updates
// its blocks with it. Block sizes above the compact-WY chunk run one such
// round per chunk.
type Chain struct {
	// Cols are the block columns, ascending; they share one owner sequence.
	Cols []int
	// Segs are that sequence's maximal runs of one owner, top down.
	Segs []Seg
	// Back carries Tᵀ·W from the last segment's owner to the owners of the
	// others, nearest first; its Blocks are Cols.
	Back Msg
}

// Seg is a run of block rows Lo..Hi-1 of a chain's columns owned by Owner.
type Seg struct{ Owner, Lo, Hi int }

// QRStep returns step k's schedule of the distributed Householder QR.
func (l *Layout) QRStep(k int) QRStep {
	master := l.Owner(k, k)
	st := QRStep{Master: master, Tau: Msg{Root: master, Recv: []int{0}, Blocks: []int{k}}}
	to := []int{master}
	roots := make([]int, l.NB)
	for i := range roots {
		roots[i] = master
	}
	st.Gather = l.group(k, l.col(k), func(int) ([]int, []int) { return to, nil })
	st.Scatter = l.group(k, roots, func(bi int) ([]int, []int) { return l.col(k)[bi : bi+1], nil })
	if k+1 == l.NB {
		return st
	}
	st.V = l.group(k, roots, func(bi int) ([]int, []int) { return l.row(bi)[k+1:], nil })
	st.T = Msg{Root: master, Recv: l.rowOwners(l.NB-1, k+1), Blocks: []int{k}}
	for bj := k + 1; bj < l.NB; bj++ {
		owners := l.col(bj)[k:]
		at := slices.IndexFunc(st.Chains, func(c Chain) bool {
			return c.Cols[0] != k+1 && slices.Equal(l.col(c.Cols[0])[k:], owners)
		})
		if at >= 0 {
			st.Chains[at].Cols = append(st.Chains[at].Cols, bj)
			continue
		}
		var segs []Seg
		for bi := k; bi < l.NB; bi++ {
			if n := len(segs); n > 0 && segs[n-1].Owner == owners[bi-k] {
				segs[n-1].Hi = bi + 1
			} else {
				segs = append(segs, Seg{Owner: owners[bi-k], Lo: bi, Hi: bi + 1})
			}
		}
		last := segs[len(segs)-1].Owner
		seen := make([]bool, l.Ranks)
		seen[last] = true
		var up []int
		for i := len(segs) - 2; i >= 0; i-- {
			up = appendDistinct(up, seen, []int{segs[i].Owner})
		}
		st.Chains = append(st.Chains, Chain{Cols: []int{bj}, Segs: segs, Back: Msg{Root: last, Recv: up}})
	}
	for i := range st.Chains {
		st.Chains[i].Back.Blocks = st.Chains[i].Cols
	}
	return st
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
	QRFactor   Section = "qr factor"
	QRUpdate   Section = "qr update"
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

// Cols returns the block columns lo ≤ bj < hi the region covers in block
// row bi at step k of an nb×nb block matrix; lo ≥ hi when it covers none
// of the row. It is the region's one walk bound: Blocks and the
// simulator's per-step update walk read it.
func (r Region) Cols(bi, k, nb int) (lo, hi int) {
	switch r {
	case Trailing:
		if bi < k {
			return k, k
		}
		return k, nb
	case TrailingLower:
		return k, bi + 1
	default:
		return 0, nb
	}
}

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
		lo, hi := r.Cols(bi, k, l.NB)
		for bj := lo; bj < hi; bj++ {
			n := l.Owner(bi, bj)
			out[n] = append(out[n], [2]int{bi, bj})
		}
	}
	return out
}

// Work returns, per rank, the number of blocks of the region over steps
// [from, to): Σ_k |Blocks(r, k)|, the block operations a kernel working on
// the region charges each rank. It walks Cols and builds no block list.
func (l *Layout) Work(r Region, from, to int) []int {
	work := make([]int, l.Ranks)
	for k := from; k < to; k++ {
		for bi := 0; bi < l.NB; bi++ {
			lo, hi := r.Cols(bi, k, l.NB)
			for bj := lo; bj < hi; bj++ {
				work[l.owner[bi*l.NB+bj]]++
			}
		}
	}
	return work
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

// Pack is one message of the master collectives, the engine's Scatter and
// GatherInto: the blocks of block row BI that Owner holds, by ascending
// column. The engine stacks them into one (len(Cols)·r)×r matrix, so each
// block of the pack is a contiguous r×r view.
type Pack struct {
	Owner, BI int
	Cols      []int
}

// MasterPacks returns the packs of a master collective over the blocks of
// region r at step k on d's nbr×nbc block matrix (any shape), in row-major
// block order: per block row, one per owner of a block of the region in
// it, owners in the order of their first block. The scatter and the final
// gather move All; a checkpoint commit moves the region as it stood at the
// previous commit, the blocks the kernel can have written since. A pack per
// owner and block row, not one per owner, keeps a TCP frame to a block
// row's worth, so rank 0 unpacks one while the next is on the wire.
func MasterPacks(d Distribution, r Region, k int) []Pack {
	nbr, nbc := d.Blocks()
	var out []Pack
	owners := make([]int, nbc)
	cols := make([]int, 0, nbr*nbc)
	for bi := 0; bi < nbr; bi++ {
		lo, hi := r.Cols(bi, k, nbc)
		hi = min(hi, nbc)
		for bj := lo; bj < hi; bj++ {
			owners[bj] = OwnerRank(d, bi, bj)
		}
		for bj := lo; bj < hi; bj++ {
			o := owners[bj]
			if o < 0 {
				continue
			}
			start := len(cols)
			for j := bj; j < hi; j++ {
				if owners[j] == o {
					cols, owners[j] = append(cols, j), -1
				}
			}
			out = append(out, Pack{Owner: o, BI: bi, Cols: cols[start:len(cols):len(cols)]})
		}
	}
	return out
}
