package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

func TestQRReconstructsInput(t *testing.T) {
	// End-to-end sanity independent of the replay: Q·R == A.
	rng := rand.New(rand.NewSource(305))
	const nb, r = 4, 3
	a := matrix.Random(nb*r, nb*r, rng)
	d := engineDistributions(t, nb)[1] // het-panel
	var got *matrix.Dense
	var taus [][]float64
	_, err := Run(4, func(c *Comm) error {
		store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		ts, err := QR(c, d, store)
		if err != nil {
			return err
		}
		full, err := Gather(c, d, store)
		if c.Rank() == 0 {
			got = full
			taus = ts
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := &kernels.QRReplay{Replay: kernels.Replay{C: got}, Taus: taus}
	qm := rep.Q(r)
	if !matrix.Mul(qm, rep.R()).EqualApprox(a, 1e-9) {
		t.Fatal("Q·R does not reconstruct the input")
	}
}

func TestQRValidation(t *testing.T) {
	rect, err := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := Run(4, func(c *Comm) error {
		_, err := QR(c, rect, newBlockStore(2))
		return err
	})
	if runErr == nil {
		t.Fatal("rectangular QR accepted")
	}
}
