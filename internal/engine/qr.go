package engine

import (
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// QR executes the distributed blocked right-looking Householder QR
// factorization, overwriting the store's blocks with the packed factors (R
// in the upper triangle, reflector columns below it) — the distributed
// counterpart of kernels.ReplayQRNumerics, bit-identical to it.
//
// Per step k the owner of the diagonal block acts as panel master: it
// gathers the trailing blocks of column k, factors the tall panel, and
// scatters the packed blocks back. The packed panel and its tau scalings
// are then broadcast (under the world's BroadcastKind) to the trailing
// slab masters — the owners of row k's trailing blocks — each of which
// re-derives the panel's compact-WY form from them once, gathers all of its
// block columns into one slab, applies Qᵀ to it as one product, and returns
// the updated blocks to their owners. The replay makes the same
// matrix.FactorQR and (*QR).QTMul calls on whole columns of the same
// values, and QTMul's result is a function of those values alone — not of
// the slab's width or stride (matrix/gemm.go's determinism contract) — so
// the factors match bit for bit.
//
// The tau scalings collect in the store's Taus at rank 0, one slice per
// panel, each by the end of its panel's step (so a checkpoint taken between
// steps has every tau produced so far); QR returns them there (nil
// elsewhere), matching kernels.QRReplay.Taus.
func QR(c *Comm, d distribution.Distribution, a *BlockStore) ([][]float64, error) {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return nil, err
	}
	nb, r := lay.NB, a.R
	co := NewCollectives(c, d)
	me := c.Rank()
	if me == 0 && len(a.Taus) < nb {
		a.Taus = append(a.Taus, make([][]float64, nb-len(a.Taus))...)
	}

	// The rank's one gather buffer: every slab of the run is a view of it,
	// shorter each step; it is regrown only if a step needs a wider one.
	buf := matrix.New(0, 0)
	slabOf := func(rows, cols int) *matrix.Dense {
		if br, bc := buf.Dims(); br < rows || bc < cols {
			buf = matrix.New(max(br, rows), max(bc, cols))
		}
		return buf.Slice(0, rows, 0, cols)
	}
	// collect assembles block column bj of rows k.. into cols
	// [j·r, (j+1)·r) of slab, from the store or from the owners' messages.
	collect := func(slab *matrix.Dense, j, k, bj int, prefix string) {
		for bi := k; bi < nb; bi++ {
			var blk *matrix.Dense
			if owner := lay.Owner(bi, bj); owner == me {
				blk = a.Get(bi, bj)
			} else {
				blk = c.Recv(owner, blockTag(prefix, bj, bi))
			}
			blockView(slab, bi-k, j, r).CopyFrom(blk)
		}
	}
	// hand is collect's inverse: block column j of src goes back to the
	// owners of column bj.
	hand := func(src *matrix.Dense, j, k, bj int, prefix string) {
		for bi := k; bi < nb; bi++ {
			seg := blockView(src, bi-k, j, r)
			if owner := lay.Owner(bi, bj); owner == me {
				a.Get(bi, bj).CopyFrom(seg)
			} else {
				c.Send(owner, blockTag(prefix, bj, bi), seg)
			}
		}
	}
	// exchange is the other ranks' side of collect and hand: with send, my
	// blocks of column bj go to its master; without, they come back.
	exchange := func(k, bj, master int, prefix string, send bool) {
		for bi := k; bi < nb && master != me; bi++ {
			if lay.Owner(bi, bj) != me {
				continue
			}
			if send {
				c.Send(master, blockTag(prefix, bj, bi), a.Get(bi, bj))
			} else {
				a.Get(bi, bj).CopyFrom(c.Recv(master, blockTag(prefix, bj, bi)))
			}
		}
	}

	// The whole step is QR's panel part, so it runs at depth 0.
	if err := runSteps(c, a, nb, func(k int) (step, error) {
		master := lay.Owner(k, k)
		rows := (nb - k) * r
		ks := strconv.Itoa(k)

		// 1. Panel gather: trailing blocks of column k to the master, which
		// factors the tall panel and scatters the packed blocks back.
		exchange(k, k, master, "qg", true)
		var f *matrix.QR         // the panel's factorization, at the master and the slab masters
		var packed *matrix.Dense // rows×r packed panel, at the master
		var tauMat *matrix.Dense // r×1 column of tau scalings
		if master == me {
			slab := slabOf(rows, r)
			collect(slab, 0, k, k, "qg")
			if err := c.Compute("qr factor k="+ks, func() error {
				f = matrix.FactorQR(slab)
				return nil
			}); err != nil {
				return step{}, err
			}
			packed, tauMat = f.Packed(), matrix.NewFromSlice(r, 1, f.Tau())
			// The tau scalings stream to rank 0 as they are produced (a
			// self-send when rank 0 is the master — buffered, uncounted);
			// rank 0 receives them at the end of each step, after all of
			// its own step-k sends, so the receive can never block a send
			// the master is waiting on.
			c.Send(0, "qtau/"+ks, tauMat)
			hand(packed, 0, k, k, "qf")
		}
		exchange(k, k, master, "qf", false)

		// 2. Broadcast the packed panel and taus to the trailing slab
		// masters (owners of row k's trailing blocks).
		tm := lay.RowOwners(k, k+1)
		packedAll := co.bcastIfMember("qp/"+ks, master, tm, packed, rows)
		tauAll := co.bcastIfMember("qt/"+ks, master, tm, tauMat, r)

		// 3. Trailing update: every rank sends its trailing blocks to their
		// slab masters; a slab master gathers the block columns it masters
		// side by side, applies Qᵀ to them as one product, and returns the
		// updated blocks.
		for bj := k + 1; bj < nb; bj++ {
			exchange(k, bj, lay.Owner(k, bj), "qs/"+ks, true)
		}
		if mine := lay.RowRight(k)[me]; len(mine) > 0 {
			if f == nil {
				f = matrix.QRFromPacked(packedAll, tauOf(tauAll))
			}
			slab := slabOf(rows, len(mine)*r)
			for j, bj := range mine {
				collect(slab, j, k, bj, "qs/"+ks)
			}
			if err := c.Compute("qr update k="+ks, func() error {
				f.QTMul(slab)
				return nil
			}); err != nil {
				return step{}, err
			}
			for j, bj := range mine {
				hand(slab, j, k, bj, "qu/"+ks)
			}
		}
		for bj := k + 1; bj < nb; bj++ {
			exchange(k, bj, lay.Owner(k, bj), "qu/"+ks, false)
		}

		// Rank 0 collects this panel's tau scalings before leaving the
		// step, so a checkpoint between steps captures them all.
		if me == 0 {
			a.Taus[k] = tauOf(c.Recv(master, "qtau/"+ks))
		}
		return step{}, nil
	}); err != nil {
		return nil, err
	}
	return a.Taus, nil
}

// tauOf reads a panel's tau scalings out of the r×1 matrix they travel as.
func tauOf(m *matrix.Dense) []float64 {
	tau := make([]float64, m.Rows())
	for i := range tau {
		tau[i] = m.At(i, 0)
	}
	return tau
}
