package distribution

import (
	"testing"

	"hetgrid/internal/grid"
)

// badDist is a deliberately broken Distribution for validate tests.
type badDist struct {
	p, q, nbr, nbc int
	ownerFn        func(bi, bj int) (int, int)
}

func (b *badDist) Dims() (int, int)            { return b.p, b.q }
func (b *badDist) Blocks() (int, int)          { return b.nbr, b.nbc }
func (b *badDist) Owner(bi, bj int) (int, int) { return b.ownerFn(bi, bj) }
func (b *badDist) Name() string                { return "bad" }

func TestValidateAcceptsBuiltins(t *testing.T) {
	uni, _ := UniformBlockCyclic(2, 3, 8, 9)
	if err := validate(uni); err != nil {
		t.Fatal(err)
	}
	kl, _ := NewKL(grid.MustNew([][]float64{{1, 2}, {3, 5}}), 8, 9)
	if err := validate(kl); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadImplementations(t *testing.T) {
	cases := map[string]*badDist{
		"zero grid": {p: 0, q: 2, nbr: 2, nbc: 2,
			ownerFn: func(int, int) (int, int) { return 0, 0 }},
		"zero blocks": {p: 2, q: 2, nbr: 0, nbc: 2,
			ownerFn: func(int, int) (int, int) { return 0, 0 }},
		"owner out of range": {p: 2, q: 2, nbr: 2, nbc: 2,
			ownerFn: func(bi, bj int) (int, int) { return bi + bj, 0 }},
		"negative owner": {p: 2, q: 2, nbr: 2, nbc: 2,
			ownerFn: func(int, int) (int, int) { return -1, 0 }},
	}
	for name, d := range cases {
		if err := validate(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
