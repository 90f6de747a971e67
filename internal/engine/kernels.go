package engine

import (
	"fmt"
	"slices"
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// BlockStore is one rank's private collection of r×r blocks, keyed by
// block coordinates, and how far a kernel has taken them. Ranks only ever
// hold blocks they own (plus transient received panels inside a kernel
// step).
type BlockStore struct {
	R      int
	Blocks map[[2]int]*matrix.Dense
	// Step is the first kernel step the blocks have not been through (0
	// after Scatter or ZeroStore); kernels start there.
	Step int
	// Taus are QR's tau scalings at rank 0 (nil elsewhere), one per panel.
	Taus [][]float64
}

// newBlockStore returns an empty store for blocks of size r.
func newBlockStore(r int) *BlockStore {
	return &BlockStore{R: r, Blocks: map[[2]int]*matrix.Dense{}}
}

// Get returns the block at (bi, bj), panicking if the rank does not hold
// it — by construction that would be a distributed-memory violation.
func (s *BlockStore) Get(bi, bj int) *matrix.Dense {
	b, ok := s.Blocks[[2]int{bi, bj}]
	if !ok {
		panic(fmt.Sprintf("engine: block (%d,%d) not resident", bi, bj))
	}
	return b
}

// Put stores a block.
func (s *BlockStore) Put(bi, bj int, b *matrix.Dense) {
	s.Blocks[[2]int{bi, bj}] = b
}

// Scatter distributes the blocks of full (present only at rank 0) to their
// owners and returns this rank's store. blockSize r must divide the matrix
// order. Rank 0 copies each owner's blocks of a block row into one pack
// (distribution.MasterPacks over All) and sends it; the owner keeps views
// into the pack as its blocks, so every block is copied once and the
// caller's matrix stays the caller's.
func Scatter(c *Comm, d distribution.Distribution, full *matrix.Dense, r int) (*BlockStore, error) {
	nbr, nbc := d.Blocks()
	me := c.Rank()
	if me == 0 {
		if full == nil {
			return nil, fmt.Errorf("engine: rank 0 must hold the full matrix")
		}
		if err := checkTiling(full, nbr, nbc, r); err != nil {
			return nil, err
		}
	}
	store := newBlockStore(r)
	for _, p := range distribution.MasterPacks(d, distribution.All, 0) {
		var buf *matrix.Dense
		switch {
		case me == 0:
			buf = matrix.New(len(p.Cols)*r, r)
			for i, bj := range p.Cols {
				copyBlock(buf, i*r, 0, full, p.BI*r, bj*r, r)
			}
			if p.Owner != 0 {
				c.Send(p.Owner, packTag("scatter", p.BI), buf)
				continue
			}
		case p.Owner == me:
			buf = c.Recv(0, packTag("scatter", p.BI))
		default:
			continue
		}
		for i, bj := range p.Cols {
			store.Put(p.BI, bj, buf.Slice(i*r, (i+1)*r, 0, r))
		}
	}
	return store, nil
}

// packTag names the channel of block row bi's pack; the channel's two ends
// tell the owners apart.
func packTag(prefix string, bi int) string { return prefix + "/" + strconv.Itoa(bi) }

// copyBlock copies the r×r block of src at element (si, sj) to dst at
// element (di, dj). Both views are inlined and stay on the stack: a copy
// allocates nothing.
func copyBlock(dst *matrix.Dense, di, dj int, src *matrix.Dense, si, sj, r int) {
	dst.Slice(di, di+r, dj, dj+r).CopyFrom(src.Slice(si, si+r, sj, sj+r))
}

// checkTiling reports whether m is exactly nbr×nbc blocks of size r.
func checkTiling(m *matrix.Dense, nbr, nbc, r int) error {
	if fr, fc := m.Dims(); fr != nbr*r || fc != nbc*r {
		return fmt.Errorf("engine: %d×%d matrix does not tile into %d×%d blocks of %d", fr, fc, nbr, nbc, r)
	}
	return nil
}

// blockView is the view of block (bi, bj) inside the full matrix.
func blockView(full *matrix.Dense, bi, bj, r int) *matrix.Dense {
	return full.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r)
}

// Gather collects every block back to rank 0, returning the assembled
// matrix there and nil elsewhere.
func Gather(c *Comm, d distribution.Distribution, store *BlockStore) (*matrix.Dense, error) {
	var full *matrix.Dense
	if c.Rank() == 0 {
		nbr, nbc := d.Blocks()
		full = matrix.New(nbr*store.R, nbc*store.R)
	}
	return full, GatherInto(c, d, store, "gather", full, distribution.All, 0)
}

// GatherInto is the one gather: the owners send rank 0 the blocks of
// region at step k under the tag prefix, one pack per block row
// (distribution.MasterPacks), and rank 0 writes them, and its own blocks of
// the region, into dst (read at rank 0 alone). Every rank must pass the
// same region and step.
// Rank 0 holds the packs back and touches dst only once the last one is
// in, so a gather that aborts halfway — a sender died — leaves dst exactly
// as it was: a checkpoint can be advanced in place, one delta of changed
// blocks per commit. An owner copies its blocks into its packs, which are
// then the only copies it sends, so it may go on writing its blocks as
// soon as GatherInto returns.
func GatherInto(c *Comm, d distribution.Distribution, store *BlockStore, prefix string, dst *matrix.Dense, region distribution.Region, k int) error {
	nbr, nbc := d.Blocks()
	r, me := store.R, c.Rank()
	if me == 0 {
		if dst == nil {
			return fmt.Errorf("engine: rank 0 must hold the gather's destination")
		}
		if err := checkTiling(dst, nbr, nbc, r); err != nil {
			return err
		}
	}
	packs := distribution.MasterPacks(d, region, k)
	if me != 0 {
		for _, p := range packs {
			if p.Owner != me {
				continue
			}
			buf := matrix.New(len(p.Cols)*r, r)
			for i, bj := range p.Cols {
				copyBlock(buf, i*r, 0, store.Get(p.BI, bj), 0, 0, r)
			}
			c.Send(0, packTag(prefix, p.BI), buf)
		}
		return nil
	}
	got := make([]*matrix.Dense, len(packs))
	for i, p := range packs {
		if p.Owner != 0 {
			got[i] = c.Recv(p.Owner, packTag(prefix, p.BI))
		}
	}
	for i, p := range packs {
		for j, bj := range p.Cols {
			if p.Owner == 0 {
				copyBlock(dst, p.BI*r, bj*r, store.Get(p.BI, bj), 0, 0, r)
			} else {
				copyBlock(dst, p.BI*r, bj*r, got[i], j*r, 0, r)
			}
		}
	}
	return nil
}

// ZeroStore returns a store holding a zero r×r block for every position
// this rank owns — the initial accumulator of MMInto. It is purely local
// (no communication).
func ZeroStore(c *Comm, d distribution.Distribution, r int) *BlockStore {
	nbr, nbc := d.Blocks()
	s := newBlockStore(r)
	me := c.Rank()
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			if distribution.OwnerRank(d, bi, bj) == me {
				s.Put(bi, bj, matrix.New(r, r))
			}
		}
	}
	return s
}

// MM executes the distributed outer-product multiplication C = A·B: at
// step k the owners of A(·,k) broadcast along their block rows and the
// owners of B(k,·) down their block columns — panel-aggregated, so blocks
// sharing a source and receiver set travel as one stacked message — and
// every rank updates its resident C blocks. The message count equals the
// closed-form distribution.MMCommVolume exactly for the flat broadcast,
// which tests assert; ring, segmented-ring and tree schedules reshape who
// forwards to whom but deliver the same panels.
func MM(c *Comm, d distribution.Distribution, a, b *BlockStore) (*BlockStore, error) {
	cStore := ZeroStore(c, d, a.R)
	if err := MMInto(c, d, a, b, cStore); err != nil {
		return nil, err
	}
	return cStore, nil
}

// MMInto is MM accumulating into cStore, this rank's resident C blocks
// (from ZeroStore, or a restored checkpoint), from cStore's step on.
func MMInto(c *Comm, d distribution.Distribution, a, b, cStore *BlockStore) error {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return err
	}
	r := a.R
	co := NewCollectives(c, d)
	// Every step updates all of this rank's C blocks; no panel reads them.
	mine := lay.Update(distribution.All, 0)[c.Rank()]
	return runSteps(c, cStore, lay.NB, func(k int) (step, error) {
		aMsgs, bMsgs := lay.MMPanels(k)
		aTag, bTag := fmt.Sprintf("A/%d", k), fmt.Sprintf("B/%d", k)
		aPanel := co.panelSend(aTag, aMsgs, func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)
		bPanel := co.panelSend(bTag, bMsgs, func(bj int) *matrix.Dense { return b.Get(k, bj) }, r)
		return step{
			recv: func() {
				co.panelRecv(aTag, aMsgs, r, aPanel)
				co.panelRecv(bTag, bMsgs, r, bPanel)
			},
			update: func(blocks [][2]int) error {
				return update(c, cStore, distribution.MMUpdate.At(k), blocks, 1, aPanel,
					func(bj int) *matrix.Dense { return bPanel[bj] })
			},
			mine: mine,
		}, nil
	})
}

// step is the rest of kernel step k once its panel part — the diagonal
// factor, its broadcasts, the panel solves, the send halves of the panel
// broadcasts — has run: recv runs the receive halves, update the trailing
// update of the given blocks of mine. next picks the look-ahead set, the
// blocks the next panel reads (nil: none).
type step struct {
	recv   func()
	update func(blocks [][2]int) error
	mine   [][2]int
	next   func(bi, bj int) bool
}

// split returns the look-ahead set and the rest of mine, each in mine's
// order.
func (st step) split() (ahead, rest [][2]int) {
	rest = make([][2]int, 0, len(st.mine))
	for _, b := range st.mine {
		if st.next != nil && st.next(b[0], b[1]) {
			ahead = append(ahead, b)
		} else {
			rest = append(rest, b)
		}
	}
	return ahead, rest
}

// runSteps is every kernel's step loop, at look-ahead depth 1: per k it
// runs recv, the look-ahead update, Comm.Step(k+1) and panel(k+1), then
// the rest of step k's update; every block sees the operations of depth 0
// in its order. A step the hook is due at is entered drained, all of step
// k-1 done and none of k. s.Step counts the finished steps, so a kernel
// resumes wherever its store stands, bit-identically.
func runSteps(c *Comm, s *BlockStore, nb int, panel func(k int) (step, error)) error {
	enter := func(k int) (step, error) {
		if err := c.Step(k); err != nil {
			return step{}, err
		}
		return panel(k)
	}
	if s.Step >= nb {
		return nil
	}
	cur, err := enter(s.Step)
	for err == nil && s.Step < nb {
		k, next := s.Step, step{}
		early := k+1 < nb && !c.due(k+1)
		ahead, rest := cur.split()
		if cur.recv != nil {
			cur.recv()
		}
		if cur.update != nil && cur.next != nil {
			err = cur.update(ahead)
		}
		if err == nil && early {
			next, err = enter(k + 1)
		}
		if err == nil && cur.update != nil {
			err = cur.update(rest)
		}
		if err == nil {
			if s.Step++; !early && s.Step < nb {
				next, err = enter(s.Step)
			}
			cur = next
		}
	}
	return err
}

// update adds alpha·left[bi]·right(bj) to each block (bi, bj) of mine in
// one compute span, as one matrix.AddMulBlocks batch: every distinct left
// block and every distinct right(bj), evaluated once per column, is packed
// once, and then only the block products are split across the rank's
// workers. The outputs are disjoint, so every worker count gives the bits
// of the serial loop.
func update(c *Comm, s *BlockStore, label string, mine [][2]int, alpha float64, left map[int]*matrix.Dense, right func(bj int) *matrix.Dense) error {
	return c.Compute(label, func() error {
		var lefts, rights []*matrix.Dense
		li, rj := map[int]int{}, map[int]int{}
		blocks := make([]matrix.BlockUpdate, len(mine))
		for t, pos := range mine {
			bi, bj := pos[0], pos[1]
			if _, ok := li[bi]; !ok {
				li[bi] = len(lefts)
				lefts = append(lefts, left[bi])
			}
			if _, ok := rj[bj]; !ok {
				rj[bj] = len(rights)
				rights = append(rights, right(bj))
			}
			blocks[t] = matrix.BlockUpdate{Out: s.Get(bi, bj), Left: li[bi], Right: rj[bj]}
		}
		matrix.AddMulBlocks(alpha, lefts, rights, blocks, c.Numerics(), c.Parallelism())
		return nil
	})
}

// solveBelow turns this rank's blocks of column k below the diagonal into
// panel blocks, A(bi,k)·u⁻¹ for the broadcast upper triangle u — LU's L
// solve and Cholesky's panel solve alike — in one compute span under label.
func solveBelow(c *Comm, lay *distribution.Layout, s *BlockStore, label string, k int, u *matrix.Dense) error {
	return c.Compute(label, func() error {
		for _, bi := range lay.ColBelow(k)[c.Rank()] {
			if err := s.Get(bi, k).SolveUpperRight(u); err != nil {
				return fmt.Errorf("engine: step %d row %d: %w", k, bi, err)
			}
		}
		return nil
	})
}

// LU executes the distributed right-looking LU factorization without
// pivoting, overwriting the store's blocks with the packed factors. The
// communication per step has the exact structure of the simulator's model
// and the closed-form distribution.LUCommVolume:
//
//  1. the factored diagonal block goes once to each distinct owner of the
//     sub-diagonal blocks of column k (for the L solves);
//  2. the diagonal goes once to each member of block row k's trailing
//     receiver set (for the U solves);
//  3. L panel blocks sharing a source and receiver set travel as one
//     stacked message, U panels likewise.
//
// Tests assert the kernel's message and byte counts equal LUCommVolume for
// every distribution family under the flat broadcast — analytic model,
// virtual-time simulator and real concurrent execution all agree.
func LU(c *Comm, d distribution.Distribution, a *BlockStore) error {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return err
	}
	r := a.R
	co := NewCollectives(c, d)
	me := c.Rank()
	return runSteps(c, a, lay.NB, func(k int) (step, error) {
		diagDown, diagRight, lMsgs, uMsgs := lay.LUPanels(k)

		// 1+2. Diagonal factor and its two broadcasts.
		var diag *matrix.Dense
		if diagDown.Root == me {
			diag = a.Get(k, k)
			if err := c.Compute(distribution.LUFactor.At(k), func() error {
				return matrix.FactorNoPivot(diag)
			}); err != nil {
				return step{}, fmt.Errorf("engine: step %d: %w", k, err)
			}
		}
		if got := co.bcastIfMember(fmt.Sprintf("dC/%d", k), diagDown.Root, diagDown.Recv, diag, r); got != nil {
			diag = got
		}
		if got := co.bcastIfMember(fmt.Sprintf("dR/%d", k), diagRight.Root, diagRight.Recv, diag, r); got != nil {
			diag = got
		}

		// 3a. L panel: my sub-diagonal blocks of column k, then the send
		// halves of the grouped row broadcasts.
		if err := solveBelow(c, lay, a, distribution.LULSolve.At(k), k, diag); err != nil {
			return step{}, err
		}
		lTag, uTag := fmt.Sprintf("L/%d", k), fmt.Sprintf("U/%d", k)
		lPanel := co.panelSend(lTag, lMsgs, func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)

		// 3b. U panel: triangular solves, then the grouped column sends.
		if err := c.Compute(distribution.LUUSolve.At(k), func() error {
			for _, bj := range lay.RowRight(k)[me] {
				diag.SolveLowerUnitNumerics(a.Get(k, bj), c.Numerics())
			}
			return nil
		}); err != nil {
			return step{}, err
		}
		uPanel := co.panelSend(uTag, uMsgs, func(bj int) *matrix.Dense { return a.Get(k, bj) }, r)

		// 4. Receive both panels, then the trailing update on my blocks;
		// row and column k+1 are the next panel's.
		return step{
			recv: func() {
				co.panelRecv(lTag, lMsgs, r, lPanel)
				co.panelRecv(uTag, uMsgs, r, uPanel)
			},
			update: func(blocks [][2]int) error {
				return update(c, a, distribution.LUUpdate.At(k), blocks, -1, lPanel,
					func(bj int) *matrix.Dense { return uPanel[bj] })
			},
			mine: lay.Update(distribution.Trailing, k)[me],
			next: func(bi, bj int) bool { return bi == k+1 || bj == k+1 },
		}, nil
	})
}

// bcastIfMember runs Bcast when this rank is the root or in the receiver
// set and returns the payload there, nil otherwise — the glue that lets
// SPMD kernel bodies issue conditional collectives in one line.
func (co *Collectives) bcastIfMember(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	if me := co.c.Rank(); me != root && !slices.Contains(receivers, me) {
		return nil
	}
	return co.Bcast(tag, root, receivers, data, rows)
}

// Cholesky executes the distributed right-looking Cholesky factorization
// A = L·Lᵀ (lower variant) on a symmetric positive definite matrix,
// overwriting the store's lower-triangle blocks with L and zeroing the
// strict upper triangle — on a resumed run too, so it gathers exactly L; a
// store already at the last step is finished and left as it is.
// Only lower-triangle blocks are read. Panel blocks sharing a source and
// needer set travel as one stacked message.
func Cholesky(c *Comm, d distribution.Distribution, a *BlockStore) error {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return err
	}
	if a.Step >= lay.NB {
		return nil
	}
	r := a.R
	co := NewCollectives(c, d)
	me := c.Rank()
	if err := runSteps(c, a, lay.NB, func(k int) (step, error) {
		diagDown, lMsgs := lay.CholeskyPanels(k)

		var diagT *matrix.Dense // L(k,k)ᵀ, needed by the panel solvers
		if diagDown.Root == me {
			diag := a.Get(k, k)
			if err := c.Compute(distribution.CholFactor.At(k), func() error {
				f, err := matrix.FactorCholesky(diag)
				if err != nil {
					return err
				}
				diag.CopyFrom(f.L)
				diagT = f.L.T()
				return nil
			}); err != nil {
				return step{}, fmt.Errorf("engine: step %d: %w", k, err)
			}
		}
		if got := co.bcastIfMember(fmt.Sprintf("cd/%d", k), diagDown.Root, diagDown.Recv, diagT, r); got != nil {
			diagT = got
		}

		// Panel: L(bi,k) = A(bi,k)·L(k,k)^{-T}, then the send halves of the
		// grouped broadcasts to the needer sets.
		if err := solveBelow(c, lay, a, distribution.CholSolve.At(k), k, diagT); err != nil {
			return step{}, err
		}
		tag := fmt.Sprintf("cl/%d", k)
		lPanel := co.panelSend(tag, lMsgs, func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)

		// Receive the panel, then the trailing symmetric update on my
		// lower-triangle blocks; column k+1 is the next panel's.
		return step{
			recv: func() { co.panelRecv(tag, lMsgs, r, lPanel) },
			update: func(blocks [][2]int) error {
				return update(c, a, distribution.CholUpdate.At(k), blocks, -1, lPanel,
					func(bj int) *matrix.Dense { return lPanel[bj].T() })
			},
			mine: lay.Update(distribution.TrailingLower, k)[me],
			next: func(_, bj int) bool { return bj == k+1 },
		}, nil
	}); err != nil {
		return err
	}
	// Zero my strict-upper blocks and the upper parts of my diagonal
	// blocks so the gathered matrix is exactly L.
	for pos, blk := range a.Blocks {
		bi, bj := pos[0], pos[1]
		switch {
		case bj > bi:
			blk.Zero()
		case bj == bi:
			for i := 0; i < blk.Rows(); i++ {
				clear(blk.RawRow(i)[i+1:])
			}
		}
	}
	return nil
}
