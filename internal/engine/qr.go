package engine

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// QR executes the distributed blocked right-looking Householder QR
// factorization, overwriting the store's blocks with the packed factors (R
// in the upper triangle, reflector columns below it) — the distributed
// counterpart of kernels.ReplayQR, bit-identical to it.
//
// Per step k the owner of the diagonal block acts as panel master: it
// gathers the trailing blocks of column k, factors the tall panel, and
// scatters the packed blocks back. The packed panel and its tau scalings
// are then broadcast (under the world's BroadcastKind) to the trailing
// slab masters — the owners of row k's trailing blocks — each of which
// gathers its block column, applies Qᵀ, and returns the updated blocks to
// their owners. Gathering whole slabs keeps the reflector application
// identical to the replay's full-slab QTMul, so the factors match bit for
// bit.
//
// The tau scalings are returned at rank 0 (nil elsewhere), one slice per
// panel, matching kernels.QRReplay.Taus.
func QR(c *Comm, d distribution.Distribution, a *BlockStore) ([][]float64, error) {
	var taus [][]float64
	if c.Rank() == 0 {
		nb, _ := d.Blocks()
		taus = make([][]float64, nb)
	}
	if err := QRResume(c, d, a, 0, func(k int, tau []float64) {
		taus[k] = tau
	}); err != nil {
		return nil, err
	}
	return taus, nil
}

// QRResume continues the QR factorization from panel startK, assuming the
// store holds the packed result of steps 0..startK-1. Rank 0 invokes onTau
// with each panel's tau scalings at the end of that panel's step (so a
// checkpoint taken between steps has every tau produced so far); other
// ranks never call it. The step order and arithmetic match a fresh run
// exactly, so resumption is bit-identical to never having stopped.
func QRResume(c *Comm, d distribution.Distribution, a *BlockStore, startK int, onTau func(k int, tau []float64)) error {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return err
	}
	nb, r := lay.NB, a.R
	co := NewCollectives(c, d)
	me := c.Rank()

	for k := startK; k < nb; k++ {
		if err := c.Step(k); err != nil {
			return err
		}
		master := lay.Owner(k, k)
		rows := (nb - k) * r

		// 1. Panel gather: trailing blocks of column k to the master.
		for bi := k; bi < nb; bi++ {
			if lay.Owner(bi, k) == me && master != me {
				c.Send(master, fmt.Sprintf("qg/%d/%d", k, bi), a.Get(bi, k))
			}
		}
		var packed *matrix.Dense // rows×r packed panel, at the master
		var tauMat *matrix.Dense // r×1 column of tau scalings
		if master == me {
			slab := matrix.New(rows, r)
			for bi := k; bi < nb; bi++ {
				var blk *matrix.Dense
				if owner := lay.Owner(bi, k); owner == me {
					blk = a.Get(bi, k)
				} else {
					blk = c.Recv(owner, fmt.Sprintf("qg/%d/%d", k, bi))
				}
				slab.Slice((bi-k)*r, (bi-k+1)*r, 0, r).CopyFrom(blk)
			}
			if err := c.Compute(fmt.Sprintf("qr factor k=%d", k), func() error {
				f := matrix.FactorQR(slab)
				packed = f.Packed()
				tauMat = matrix.New(r, 1)
				for i, t := range f.Tau() {
					tauMat.Set(i, 0, t)
				}
				return nil
			}); err != nil {
				return err
			}
			// The tau scalings stream to rank 0 as they are produced (a
			// self-send when rank 0 is the master — buffered, uncounted);
			// rank 0 receives them at the end of each step, after all of
			// its own step-k sends, so the receive can never block a send
			// the master is waiting on.
			c.Send(0, fmt.Sprintf("qtau/%d", k), tauMat)
			// 2. Scatter the packed blocks back to their owners.
			for bi := k; bi < nb; bi++ {
				seg := packed.Slice((bi-k)*r, (bi-k+1)*r, 0, r)
				if owner := lay.Owner(bi, k); owner == me {
					a.Get(bi, k).CopyFrom(seg)
				} else {
					c.Send(owner, fmt.Sprintf("qf/%d/%d", k, bi), seg)
				}
			}
		} else {
			for bi := k; bi < nb; bi++ {
				if lay.Owner(bi, k) == me {
					a.Get(bi, k).CopyFrom(c.Recv(master, fmt.Sprintf("qf/%d/%d", k, bi)))
				}
			}
		}

		// 3. Broadcast the packed panel and taus to the trailing slab
		// masters (owners of row k's trailing blocks).
		tm := lay.RowOwners(k, k+1)
		packedAll := co.bcastIfMember(fmt.Sprintf("qp/%d", k), master, tm, packed, rows)
		tauAll := co.bcastIfMember(fmt.Sprintf("qt/%d", k), master, tm, tauMat, r)

		// 4. Trailing update, one block column at a time: the slab master
		// gathers the column, applies Qᵀ, and returns the updated blocks.
		for bj := k + 1; bj < nb; bj++ {
			sm := lay.Owner(k, bj)
			for bi := k; bi < nb; bi++ {
				if lay.Owner(bi, bj) == me && sm != me {
					c.Send(sm, fmt.Sprintf("qs/%d/%d/%d", k, bj, bi), a.Get(bi, bj))
				}
			}
			if sm == me {
				slab := matrix.New(rows, r)
				for bi := k; bi < nb; bi++ {
					var blk *matrix.Dense
					if owner := lay.Owner(bi, bj); owner == me {
						blk = a.Get(bi, bj)
					} else {
						blk = c.Recv(owner, fmt.Sprintf("qs/%d/%d/%d", k, bj, bi))
					}
					slab.Slice((bi-k)*r, (bi-k+1)*r, 0, r).CopyFrom(blk)
				}
				if err := c.Compute(fmt.Sprintf("qr update k=%d bj=%d", k, bj), func() error {
					tau := make([]float64, r)
					for i := range tau {
						tau[i] = tauAll.At(i, 0)
					}
					matrix.QRFromPacked(packedAll, tau).QTMul(slab)
					return nil
				}); err != nil {
					return err
				}
				for bi := k; bi < nb; bi++ {
					seg := slab.Slice((bi-k)*r, (bi-k+1)*r, 0, r)
					if owner := lay.Owner(bi, bj); owner == me {
						a.Get(bi, bj).CopyFrom(seg)
					} else {
						c.Send(owner, fmt.Sprintf("qu/%d/%d/%d", k, bj, bi), seg)
					}
				}
			} else {
				for bi := k; bi < nb; bi++ {
					if lay.Owner(bi, bj) == me {
						a.Get(bi, bj).CopyFrom(c.Recv(sm, fmt.Sprintf("qu/%d/%d/%d", k, bj, bi)))
					}
				}
			}
		}

		// Rank 0 collects this panel's tau scalings before leaving the
		// step, so a checkpoint between steps captures them all.
		if me == 0 {
			tm := c.Recv(master, fmt.Sprintf("qtau/%d", k))
			tau := make([]float64, r)
			for i := range tau {
				tau[i] = tm.At(i, 0)
			}
			if onTau != nil {
				onTau(k, tau)
			}
		}
	}
	return nil
}
