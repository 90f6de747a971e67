package engine

import (
	"cmp"
	"slices"
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// QR executes the distributed blocked right-looking Householder QR
// factorization, overwriting the store's blocks with the packed factors (R
// in the upper triangle, reflector columns below it) — the distributed
// counterpart of kernels.ReplayQRNumerics, bit-identical to it. Each step
// follows distribution.QRStep:
//
//  1. panel: the owner of the diagonal block, the panel master, gathers
//     column k from row k down, factors the tall panel, sends its tau
//     scalings to rank 0, scatters the packed blocks back, sends each block
//     row of the panel's compact-WY V (matrix.QR.WY) to the owners of that
//     row's trailing blocks and Tᵀ to the ranks that end a chain;
//  2. recv: the receive halves of those messages;
//  3. update: per compact-WY chunk, W = Vᵀ·B of each trailing block column
//     is accumulated down its owners in increasing block-row order (one
//     message per hop for the columns of a chain), the last owner forms
//     Tᵀ·W and broadcasts it back up the column, and every owner updates
//     its own blocks in place, B_i −= V_i·(Tᵀ·W), as one Strict
//     AddMulBlocks batch under either numerics. Column k+1's chain is the
//     look-ahead set, so QR runs at depth 1.
//
// The replay makes the same matrix.FactorQR call and applies the same WY
// factors to the whole trailing matrix at once; the chain cuts those
// products along rows and columns only, which by matrix/gemm.go's
// determinism contract leaves every bit as it was.
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
	// A master's gather buffer: every panel of the run is a view of it.
	var buf *matrix.Dense
	if err := runSteps(c, a, nb, func(k int) (step, error) {
		st := lay.QRStep(k)
		ks := strconv.Itoa(k)
		gTag, fTag, vTag, tTag, tauTag := "qg/"+ks, "qf/"+ks, "qv/"+ks, "qT/"+ks, "qtau/"+ks
		col := co.panelSend(gTag, st.Gather, func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)
		var packed, v, tt *matrix.Dense // at the master
		if st.Master == me {
			co.panelRecv(gTag, st.Gather, r, col)
			if buf == nil {
				buf = matrix.New((nb-k)*r, r)
			}
			panel := buf.Slice(0, (nb-k)*r, 0, r)
			for bi := k; bi < nb; bi++ {
				blockView(panel, bi-k, 0, r).CopyFrom(col[bi])
			}
			var f *matrix.QR
			if err := c.Compute(distribution.QRFactor.At(k), func() error {
				f = matrix.FactorQR(panel)
				v, tt = f.WY()
				return nil
			}); err != nil {
				return step{}, err
			}
			packed = f.Packed()
			// A self-send when rank 0 is the master: buffered, uncounted.
			c.Send(0, tauTag, matrix.NewFromSlice(r, 1, f.Tau()))
		}
		blockOf := func(m *matrix.Dense) func(int) *matrix.Dense {
			return func(bi int) *matrix.Dense { return blockView(m, bi-k, 0, r) }
		}
		tMsgs := []distribution.Msg{st.T}
		scattered := co.panelSend(fTag, st.Scatter, blockOf(packed), r)
		vRows := co.panelSend(vTag, st.V, blockOf(v), r)
		tPanel := co.panelSend(tTag, tMsgs, func(int) *matrix.Dense { return tt }, r)

		var mine [][2]int
		for bi := k; bi < nb; bi++ {
			for bj := k + 1; bj < nb; bj++ {
				if lay.Owner(bi, bj) == me {
					mine = append(mine, [2]int{bi, bj})
				}
			}
		}
		vt := map[[2]int]*matrix.Dense{} // V block rows' transposes, by (bi, chunk)
		return step{
			recv: func() {
				co.panelRecv(fTag, st.Scatter, r, scattered)
				for bi := k; bi < nb; bi++ {
					if lay.Owner(bi, k) == me {
						a.Get(bi, k).CopyFrom(scattered[bi])
					}
				}
				co.panelRecv(vTag, st.V, r, vRows)
				co.panelRecv(tTag, tMsgs, r, tPanel)
				// Rank 0 collects this panel's tau scalings before leaving
				// the step, so a checkpoint between steps captures them all.
				if me == 0 {
					a.Taus[k] = tauOf(c.Recv(st.Master, tauTag))
				}
			},
			update: func(blocks [][2]int) error {
				return qrUpdate(c, co, a, k, st.Chains, blocks, vRows, vt, tPanel[k])
			},
			mine: mine,
			next: func(_, bj int) bool { return bj == k+1 },
		}, nil
	}); err != nil {
		return nil, err
	}
	return a.Taus, nil
}

// qrUpdate applies step k's reflectors to this rank's blocks: it runs the
// chains whose columns blocks reach — a chain's owners own blocks in all of
// its columns, so its first column decides — one round per compact-WY
// chunk. v holds the V block rows the rank received (views of the master's
// V there), vt the step's transposes of their chunks, formed on first use,
// and tt the panel's Tᵀ at the ranks that end a chain.
//
// A rank works through its chain segments in order of (segment index,
// chain) and only then receives the broadcasts of Tᵀ·W, chain by chain.
// Every rank follows that order and a segment waits only for the segment
// above it, whose key is smaller, so no rank waits in a cycle; and a rank
// with segments in several chains keeps its peers busy down all of them.
func qrUpdate(c *Comm, co *Collectives, s *BlockStore, k int, chains []distribution.Chain, blocks [][2]int, v map[int]*matrix.Dense, vt map[[2]int]*matrix.Dense, tt *matrix.Dense) error {
	me, r := c.Rank(), s.R
	var mine []distribution.Chain
	for _, ch := range chains {
		if slices.ContainsFunc(blocks, func(b [2]int) bool { return b[1] == ch.Cols[0] }) {
			mine = append(mine, ch)
		}
	}
	type item struct{ chain, seg int }
	var items []item
	for i, ch := range mine {
		for si, sg := range ch.Segs {
			if sg.Owner == me {
				items = append(items, item{i, si})
			}
		}
	}
	slices.SortStableFunc(items, func(x, y item) int { return cmp.Compare(x.seg, y.seg) })

	label := distribution.QRUpdate.At(k)
	for c0 := 0; c0 < r; c0 += matrix.QRChunk {
		pw := min(matrix.QRChunk, r-c0)
		// The chunk reaches rows c0.. of block row k and all of the others.
		lo := func(bi int) int {
			if bi == k {
				return c0
			}
			return 0
		}
		vOf := func(bi int) *matrix.Dense { return v[bi].Slice(lo(bi), r, c0, c0+pw) }
		rowsOf := func(bi, bj int) *matrix.Dense { return s.Get(bi, bj).Slice(lo(bi), r, 0, r) }
		tag := func(kind string, ch distribution.Chain, seg int) string {
			return kind + "/" + strconv.Itoa(k) + "/" + strconv.Itoa(c0) + "/" + strconv.Itoa(ch.Cols[0]) + "/" + strconv.Itoa(seg)
		}
		colOf := func(w *matrix.Dense, j int) *matrix.Dense { return w.Slice(0, pw, j*r, (j+1)*r) }

		// Forward: W down each chain, Tᵀ·W out from its last owner.
		w2 := make([]*matrix.Dense, len(mine))
		for _, it := range items {
			ch := mine[it.chain]
			sg := ch.Segs[it.seg]
			var w *matrix.Dense
			if it.seg == 0 {
				w = matrix.New(pw, len(ch.Cols)*r)
			} else {
				w = c.Recv(ch.Segs[it.seg-1].Owner, tag("qw", ch, it.seg))
			}
			last := it.seg+1 == len(ch.Segs)
			if err := c.Compute(label, func() error {
				rights := make([]*matrix.Dense, len(ch.Cols))
				ups := make([]matrix.BlockUpdate, len(ch.Cols))
				for bi := sg.Lo; bi < sg.Hi; bi++ {
					left := vt[[2]int{bi, c0}]
					if left == nil {
						left = vOf(bi).T()
						vt[[2]int{bi, c0}] = left
					}
					for j, bj := range ch.Cols {
						rights[j] = rowsOf(bi, bj)
						ups[j] = matrix.BlockUpdate{Out: colOf(w, j), Right: j}
					}
					matrix.AddMulBlocks(1, []*matrix.Dense{left}, rights, ups, matrix.Strict, c.Parallelism())
				}
				if last {
					w2[it.chain] = matrix.New(pw, len(ch.Cols)*r)
					w2[it.chain].AddMulNumerics(1, tt.Slice(c0, c0+pw, c0, c0+pw), w, matrix.Strict)
				}
				return nil
			}); err != nil {
				return err
			}
			if last {
				co.bcastSend(tag("qb", ch, 0), me, ch.Back.Recv, w2[it.chain], pw)
			} else {
				c.Send(ch.Segs[it.seg+1].Owner, tag("qw", ch, it.seg+1), w)
			}
		}
		// Back: Tᵀ·W up each column.
		for i, ch := range mine {
			if w2[i] == nil {
				w2[i] = co.bcastRecv(tag("qb", ch, 0), ch.Back.Root, ch.Back.Recv, pw)
			}
		}

		// Every owner's update, B_i −= V_i·(Tᵀ·W): one batch, or two when
		// block row k's shorter rows give its lefts a shape of their own.
		if err := c.Compute(label, func() error {
			for _, rowK := range []bool{false, true} {
				if rowK && c0 == 0 {
					break
				}
				var lefts, rights []*matrix.Dense
				var ups []matrix.BlockUpdate
				li := map[int]int{}
				for i, ch := range mine {
					n := len(ups)
					for _, sg := range ch.Segs {
						for bi := sg.Lo; bi < sg.Hi && sg.Owner == me; bi++ {
							if (bi == k && c0 > 0) != rowK {
								continue
							}
							if _, ok := li[bi]; !ok {
								li[bi] = len(lefts)
								lefts = append(lefts, vOf(bi))
							}
							for j, bj := range ch.Cols {
								ups = append(ups, matrix.BlockUpdate{Out: rowsOf(bi, bj), Left: li[bi], Right: len(rights) + j})
							}
						}
					}
					if len(ups) > n {
						for j := range ch.Cols {
							rights = append(rights, colOf(w2[i], j))
						}
					}
				}
				matrix.AddMulBlocks(-1, lefts, rights, ups, matrix.Strict, c.Parallelism())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// tauOf reads a panel's tau scalings out of the r×1 matrix they travel as.
func tauOf(m *matrix.Dense) []float64 {
	tau := make([]float64, m.Rows())
	for i := range tau {
		tau[i] = m.At(i, 0)
	}
	return tau
}
