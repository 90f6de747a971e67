package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

func TestQRValidation(t *testing.T) {
	rect, err := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := RunOpts(4, Options{}, func(c *Comm) error {
		_, err := QR(c, rect, newBlockStore(2))
		return err
	})
	if runErr == nil {
		t.Fatal("rectangular QR accepted")
	}
}

// TestQRRandomLayoutsMatchReplay runs QR on Kalinov–Lastovetsky layouts of
// random cycle-times on 1×4, 4×1, 2×3 and 3×2 grids, nb = 1..9, r = 3,
// under every broadcast kind, numerics alternating: each run must give
// ReplayQRNumerics's packed factors and taus bit for bit, within a
// watchdog. Such layouts give chains in which one rank owns several
// segments that are not adjacent, which the fixed layouts of the
// conformance matrix barely reach; the test fails if none arises.
func TestQRRandomLayoutsMatchReplay(t *testing.T) {
	const r = 3
	rng := rand.New(rand.NewSource(48))
	split := 0 // chains with a rank owning non-adjacent segments
	run := 0
	for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 3}, {3, 2}} {
		p, q := shape[0], shape[1]
		for nb := 1; nb <= 9; nb++ {
			times := make([][]float64, p)
			for i := range times {
				times[i] = make([]float64, q)
				for j := range times[i] {
					times[i][j] = 1 + 9*rng.Float64()
				}
			}
			d, err := distribution.NewKL(grid.MustNew(times), nb, nb)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := distribution.NewLayout(d)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < nb; k++ {
				for _, ch := range lay.QRStep(k).Chains {
					for i, sg := range ch.Segs {
						if slices.ContainsFunc(ch.Segs[min(i+2, len(ch.Segs)):], func(o distribution.Seg) bool { return o.Owner == sg.Owner }) {
							split++
						}
					}
				}
			}
			a := matrix.Random(nb*r, nb*r, rng)
			want, err := kernels.ReplayQRNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				mode := []matrix.Numerics{matrix.Strict, matrix.Fast}[run%2]
				run++
				name := fmt.Sprintf("%d×%d/nb=%d/%s/%v", p, q, nb, bk.name, mode)
				var got *matrix.Dense
				var taus [][]float64
				done := make(chan error, 1)
				go func() {
					_, err := RunOpts(p*q, Options{Broadcast: bk.kind, Numerics: mode}, func(c *Comm) error {
						s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
						if err != nil {
							return err
						}
						ts, err := QR(c, d, s)
						if err != nil {
							return err
						}
						full, err := Gather(c, d, s)
						if c.Rank() == 0 {
							got, taus = full, ts
						}
						return err
					})
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s: no result after 30 s", name)
				}
				if !got.Equal(want.C) {
					t.Fatalf("%s: packed factors not bit-identical to the replay", name)
				}
				for k := range want.Taus {
					if !slices.Equal(taus[k], want.Taus[k]) {
						t.Fatalf("%s: taus of panel %d differ from the replay", name, k)
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no chain had a rank owning non-adjacent segments")
	}
	t.Logf("%d runs, %d chain segments whose owner returns further down", run, split)
}
