package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

func TestDistributedCholeskyIndefinite(t *testing.T) {
	// An indefinite matrix must surface the error from the diagonal owner.
	bad := matrix.Identity(8)
	bad.Set(0, 0, -1)
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	_, err := RunOpts(4, Options{}, func(c *Comm) error {
		store, err := Scatter(c, d, pick(c.Rank() == 0, bad), 2)
		if err != nil {
			return err
		}
		return Cholesky(c, d, store)
	})
	if err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

// TestCholeskyLeavesFinishedStore: a store already at the last step is
// finished, so a Cholesky call on it runs no step and writes no block —
// not even the strict-upper zeroing, which a call that ran steps does.
func TestCholeskyLeavesFinishedStore(t *testing.T) {
	const nb, r = 3, 2
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(nb*r, nb*r, rand.New(rand.NewSource(50)))
	var got *matrix.Dense
	_, err = RunOpts(4, Options{}, func(c *Comm) error {
		s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		s.Step = nb
		if err := Cholesky(c, d, s); err != nil {
			return err
		}
		g, err := Gather(c, d, s)
		if c.Rank() == 0 {
			got = g
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Fatal("Cholesky wrote a store that was already at its last step")
	}
}
