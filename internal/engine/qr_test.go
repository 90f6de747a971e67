package engine

import (
	"testing"

	"hetgrid/internal/distribution"
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
