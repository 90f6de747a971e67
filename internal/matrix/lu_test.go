package matrix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// splitLU unpacks a factored block the way the replay and the facade read
// it: L strictly below the diagonal with an implicit unit diagonal, U on and
// above it.
func splitLU(packed *Dense) (l, u *Dense) {
	n := packed.Rows()
	l, u = Identity(n), New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, packed.At(i, j))
			} else {
				u.Set(i, j, packed.At(i, j))
			}
		}
	}
	return l, u
}

func TestFactorNoPivotReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 32, 64} {
		a := RandomWellConditioned(n, rng)
		packed := a.Clone()
		if err := FactorNoPivot(packed); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := splitLU(packed)
		if lu := Mul(l, u); !lu.EqualApprox(a, 1e-10) {
			t.Fatalf("n=%d: L·U differs from A by %g", n, Sub(lu, a).MaxAbs())
		}
	}
}

func TestFactorNoPivotZeroPivot(t *testing.T) {
	for name, a := range map[string]*Dense{
		"zero first pivot":                 NewFromRows([][]float64{{0, 1}, {1, 1}}),
		"last pivot zeroed by elimination": NewFromRows([][]float64{{1, 1}, {1, 1}}),
	} {
		if err := FactorNoPivot(a); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", name, err)
		}
	}
}

func TestFactorNoPivotNonSquarePanics(t *testing.T) {
	defer func() {
		if got, want := fmt.Sprint(recover()), "matrix: FactorNoPivot of non-square 2×3"; got != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	_ = FactorNoPivot(New(2, 3))
}

// The serial replay factors diagonal blocks as strided views of the whole
// matrix, the engine's ranks factor their own contiguous copies: both must
// get the same bits, in place, touching nothing outside the block.
func TestFactorNoPivotInPlaceOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, at = 16, 5
	whole := Random(n+9, n+13, rng)
	view := whole.Slice(at, at+n, at, at+n)
	view.CopyFrom(RandomWellConditioned(n, rng))
	before := whole.Clone()

	copied := view.Clone()
	if err := FactorNoPivot(copied); err != nil {
		t.Fatal(err)
	}
	if err := FactorNoPivot(view); err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(view, copied) {
		t.Fatal("a strided view and its contiguous clone factor to different bits")
	}
	if view.Equal(before.Slice(at, at+n, at, at+n)) {
		t.Fatal("FactorNoPivot left its input as it was: the factors must overwrite it")
	}
	view.CopyFrom(before.Slice(at, at+n, at, at+n))
	if !bitIdentical(whole, before) {
		t.Fatal("factoring a view wrote outside the view")
	}
}
