package engine

import (
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
