package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// TestLookAheadOrderAndDrain pins the step loop's depth for every kernel.
// With a step hook due every third step: before every step K+1 the hook is
// not due at, each rank enters K+1 — and the owner of diagonal block K+1
// factors it (QR: the panel master factors panel K+1) — before it begins
// the last span of step K's update; a due step is entered after
// all of step K, and the store the hook sees is the depth-0 store of that
// step, bit for bit.
func TestLookAheadOrderAndDrain(t *testing.T) {
	const nb, every = 7, 3
	due := func(k int) bool { return k%every == 0 }
	rng := rand.New(rand.NewSource(33))
	for _, r := range []int{3, 16} {
		n := nb * r
		a, b, spd := matrix.RandomWellConditioned(n, rng), matrix.Random(n, n, rng), matrix.RandomSPD(n, rng)
		for _, kern := range []struct {
			name           string
			work           *matrix.Dense // the working matrix before step 0
			factor, update distribution.Section
			run            func(c *Comm, d distribution.Distribution, s *BlockStore) error
		}{
			{"mm", matrix.New(n, n), "", distribution.MMUpdate, func(c *Comm, d distribution.Distribution, s *BlockStore) error {
				as, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
				if err != nil {
					return err
				}
				bs, err := Scatter(c, d, pick(c.Rank() == 0, b), r)
				if err != nil {
					return err
				}
				return MMInto(c, d, as, bs, s)
			}},
			{"lu", a, distribution.LUFactor, distribution.LUUpdate, LU},
			{"cholesky", spd, distribution.CholFactor, distribution.CholUpdate, Cholesky},
			{"qr", b, distribution.QRFactor, distribution.QRUpdate, func(c *Comm, d distribution.Distribution, s *BlockStore) error {
				_, err := QR(c, d, s)
				return err
			}},
		} {
			var want []*matrix.Dense // the depth-0 store at each due step
			for k := 0; k < nb; k += every {
				want = append(want, depth0(t, kern.name, kern.work, a, b, r, k))
			}
			for _, d := range engineDistributions(t, nb) {
				lay, err := distribution.NewLayout(d)
				if err != nil {
					t.Fatal(err)
				}
				for _, bk := range allBroadcastKinds {
					name := fmt.Sprintf("%s/%s/%s/r=%d", kern.name, d.Name(), bk.name, r)
					var seen []*matrix.Dense
					w, err := RunOpts(4, Options{Broadcast: bk.kind, Record: true}, func(c *Comm) error {
						s, err := Scatter(c, d, pick(c.Rank() == 0, kern.work), r)
						if err != nil {
							return err
						}
						c.SetStepHook(due, func(k int) error {
							g, err := gatherAs(c, d, s, fmt.Sprintf("seen/%d", k))
							if c.Rank() == 0 {
								seen = append(seen, g)
							}
							return err
						})
						return kern.run(c, d, s)
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(seen) != len(want) {
						t.Fatalf("%s: hook ran %d times, want %d", name, len(seen), len(want))
					}
					for i := range want {
						if !seen[i].Equal(want[i]) {
							t.Fatalf("%s: the hook at step %d saw a store that is not the depth-0 store", name, i*every)
						}
					}

					// Spans get their IDs as they begin, so on one rank the IDs
					// order the rank's program.
					type at struct {
						rank int
						name string
					}
					first, last := map[at]obs.SpanID{}, map[at]obs.SpanID{}
					for _, sp := range w.Spans() {
						key := at{sp.Rank, sp.Name}
						if id, ok := first[key]; !ok || sp.ID < id {
							first[key] = sp.ID
						}
						last[key] = max(last[key], sp.ID)
					}
					for k := 0; k+1 < nb; k++ {
						tail := kern.update.At(k)
						for rank := 0; rank < 4; rank++ {
							entered := first[at{rank, fmt.Sprintf("step %d", k+1)}]
							if ahead := entered < last[at{rank, tail}]; ahead == due(k+1) {
								t.Fatalf("%s: rank %d entered step %d before the last %q: %v, hook due: %v", name, rank, k+1, tail, ahead, due(k+1))
							}
						}
						owner := lay.Owner(k+1, k+1)
						factored, ok := first[at{owner, kern.factor.At(k + 1)}]
						if kern.factor != "" && !due(k+1) && (!ok || factored > last[at{owner, tail}]) {
							t.Fatalf("%s: rank %d factored step %d after the last %q", name, owner, k+1, tail)
						}
					}
				}
			}
		}
	}
}

// depth0 is the working matrix of the serial right-looking kernel after
// steps 0..k-1 — the replays' loop cut at k, what a rank entering step k
// drained holds. For "mm" work is the zero accumulator and a, b the
// factors; otherwise work is the input.
func depth0(t *testing.T, kernel string, work, a, b *matrix.Dense, r, k int) *matrix.Dense {
	t.Helper()
	w := work.Clone()
	nb := w.Rows() / r
	blk := func(m *matrix.Dense, bi, bj int) *matrix.Dense { return m.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r) }
	for s := 0; s < k; s++ {
		switch kernel {
		case "mm":
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					blk(w, bi, bj).AddMulNumerics(1, blk(a, bi, s), blk(b, s, bj), matrix.Strict)
				}
			}
		case "lu":
			diag := blk(w, s, s)
			if err := matrix.FactorNoPivot(diag); err != nil {
				t.Fatal(err)
			}
			for i := s + 1; i < nb; i++ {
				if err := blk(w, i, s).SolveUpperRight(diag); err != nil {
					t.Fatal(err)
				}
				diag.SolveLowerUnitNumerics(blk(w, s, i), matrix.Strict)
			}
			for i := s + 1; i < nb; i++ {
				for j := s + 1; j < nb; j++ {
					blk(w, i, j).AddMulNumerics(-1, blk(w, i, s), blk(w, s, j), matrix.Strict)
				}
			}
		case "cholesky":
			f, err := matrix.FactorCholesky(blk(w, s, s).Clone())
			if err != nil {
				t.Fatal(err)
			}
			blk(w, s, s).CopyFrom(f.L)
			for i := s + 1; i < nb; i++ {
				if err := blk(w, i, s).SolveUpperRight(f.L.T()); err != nil {
					t.Fatal(err)
				}
			}
			for i := s + 1; i < nb; i++ {
				for j := s + 1; j <= i; j++ {
					blk(w, i, j).AddMulNumerics(-1, blk(w, i, s), blk(w, j, s).T(), matrix.Strict)
				}
			}
		case "qr":
			n := nb * r
			panel := w.Slice(s*r, n, s*r, (s+1)*r)
			f := matrix.FactorQR(panel)
			panel.CopyFrom(f.Packed())
			f.QTMul(w.Slice(s*r, n, (s+1)*r, n))
		}
	}
	return w
}

// gatherAs collects s at rank 0 under tag (nil elsewhere). The ranks go on
// computing after it, as after a checkpoint commit; the packs are their
// copies.
func gatherAs(c *Comm, d distribution.Distribution, s *BlockStore, tag string) (*matrix.Dense, error) {
	var m *matrix.Dense
	if c.Rank() == 0 {
		nbr, nbc := d.Blocks()
		m = matrix.New(nbr*s.R, nbc*s.R)
	}
	return m, GatherInto(c, d, s, tag, m, distribution.All, 0)
}
