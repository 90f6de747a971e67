package grid

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		in   [][]float64
	}{
		{"empty", nil},
		{"empty rows", [][]float64{{}}},
		{"ragged", [][]float64{{1, 2}, {3}}},
		{"zero", [][]float64{{1, 0}}},
		{"negative", [][]float64{{1, -2}}},
	}
	for _, c := range cases {
		if _, err := New(c.in); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	a, err := New([][]float64{{1, 2}, {3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if a.P != 2 || a.Q != 2 {
		t.Fatalf("dims %d×%d", a.P, a.Q)
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := [][]float64{{1, 2}, {3, 4}}
	a := MustNew(in)
	in[0][0] = 99
	if a.T[0][0] != 1 {
		t.Fatal("New aliased the input")
	}
}

func TestRowMajor(t *testing.T) {
	a, err := RowMajor([]float64{9, 1, 5, 3, 7, 2, 8, 4, 6}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if !a.Equal(want) {
		t.Fatalf("RowMajor = \n%swant\n%s", a, want)
	}
	if !a.IsNonDecreasing() {
		t.Fatal("row-major arrangement must be non-decreasing")
	}
	if _, err := RowMajor([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestTimesRoundTrip(t *testing.T) {
	a := MustNew([][]float64{{1, 2}, {3, 6}})
	got := a.Times()
	want := []float64{1, 2, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Times = %v", got)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := MustNew([][]float64{{1, 2}, {3, 6}})
	b := a.Clone()
	b.T[0][0] = 42
	if a.T[0][0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestIsNonDecreasing(t *testing.T) {
	yes := MustNew([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !yes.IsNonDecreasing() {
		t.Fatal("sorted arrangement reported decreasing")
	}
	rowBad := MustNew([][]float64{{2, 1}, {3, 4}})
	if rowBad.IsNonDecreasing() {
		t.Fatal("decreasing row accepted")
	}
	colBad := MustNew([][]float64{{1, 5}, {2, 4}})
	if colBad.IsNonDecreasing() {
		t.Fatal("decreasing column accepted")
	}
	ties := MustNew([][]float64{{1, 1}, {1, 1}})
	if !ties.IsNonDecreasing() {
		t.Fatal("ties must be allowed")
	}
	// The paper's §4.4.3 example result is non-decreasing even though it is
	// not row-major contiguous.
	paper := MustNew([][]float64{{1, 2, 3}, {4, 6, 8}, {5, 7, 9}})
	if !paper.IsNonDecreasing() {
		t.Fatal("paper's converged arrangement must be non-decreasing")
	}
}

func TestIsRank1(t *testing.T) {
	// The paper's Figure 1 example is rank-1.
	fig1 := MustNew([][]float64{{1, 2}, {3, 6}})
	if !fig1.IsRank1(0) {
		t.Fatal("[[1,2],[3,6]] is rank 1")
	}
	// Changing t22 to 5 breaks rank-1 (the paper's imperfect example).
	imp := MustNew([][]float64{{1, 2}, {3, 5}})
	if imp.IsRank1(0) {
		t.Fatal("[[1,2],[3,5]] is not rank 1")
	}
	// 1D grids are trivially rank 1.
	if !MustNew([][]float64{{3, 1, 4}}).IsRank1(0) {
		t.Fatal("single row must be rank 1")
	}
	if !MustNew([][]float64{{3}, {1}, {4}}).IsRank1(0) {
		t.Fatal("single column must be rank 1")
	}
}

func TestIsRank1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(3)
		q := 2 + rng.Intn(3)
		u := make([]float64, p)
		v := make([]float64, q)
		for i := range u {
			u[i] = 0.1 + rng.Float64()
		}
		for j := range v {
			v[j] = 0.1 + rng.Float64()
		}
		t2 := make([][]float64, p)
		for i := range t2 {
			t2[i] = make([]float64, q)
			for j := range t2[i] {
				t2[i][j] = u[i] * v[j]
			}
		}
		a := MustNew(t2)
		if !a.IsRank1(0) {
			t.Fatalf("outer product not detected as rank 1:\n%s", a)
		}
		// Perturb one entry significantly.
		a.T[p-1][q-1] *= 1.5
		if a.IsRank1(0) {
			t.Fatal("perturbed matrix still reported rank 1")
		}
	}
}

func TestTranspose(t *testing.T) {
	a := MustNew([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.P != 3 || at.Q != 2 {
		t.Fatalf("transpose dims %d×%d", at.P, at.Q)
	}
	if at.T[2][1] != 6 || at.T[0][1] != 4 {
		t.Fatalf("transpose content wrong:\n%s", at)
	}
	if !at.Transpose().Equal(a) {
		t.Fatal("double transpose != original")
	}
}

func TestStringContainsValues(t *testing.T) {
	s := MustNew([][]float64{{1, 2}, {3, 6}}).String()
	for _, want := range []string{"1", "2", "3", "6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %s", s, want)
		}
	}
}

func TestEnumerateNonDecreasingCountMatchesHookLength(t *testing.T) {
	// Distinct values: the count equals the number of standard Young
	// tableaux of shape p×q.
	for _, dims := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 3}, {3, 3}, {2, 4}} {
		p, q := dims[0], dims[1]
		times := make([]float64, p*q)
		for i := range times {
			times[i] = float64(i + 1)
		}
		got, err := EnumerateNonDecreasing(times, p, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := HookLengthCount(p, q)
		if got != want {
			t.Errorf("%d×%d: enumerated %d, hook length %d", p, q, got, want)
		}
	}
}

func TestHookLengthKnownValues(t *testing.T) {
	cases := []struct{ p, q, want int }{
		{1, 1, 1}, {2, 2, 2}, {2, 3, 5}, {3, 3, 42}, {2, 4, 14}, {4, 4, 24024},
		{3, 4, 462}, {1, 9, 1},
	}
	for _, c := range cases {
		if got := HookLengthCount(c.p, c.q); got != c.want {
			t.Errorf("HookLengthCount(%d,%d) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestEnumerateNonDecreasingAllValid(t *testing.T) {
	times := []float64{1, 2, 3, 4, 5, 6}
	seen := map[string]bool{}
	n, err := EnumerateNonDecreasing(times, 2, 3, func(a *Arrangement) bool {
		if !a.IsNonDecreasing() {
			t.Fatalf("enumerated arrangement not non-decreasing:\n%s", a)
		}
		// Must be a permutation of the input.
		got := a.Times()
		sort.Float64s(got)
		for i := range got {
			if got[i] != times[i] {
				t.Fatalf("arrangement is not a permutation of input: %v", got)
			}
		}
		key := a.String()
		if seen[key] {
			t.Fatalf("duplicate arrangement:\n%s", a)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("2×3 with distinct values: %d arrangements, want 5", n)
	}
}

func TestEnumerateNonDecreasingDuplicateValues(t *testing.T) {
	// All-equal values: exactly one arrangement.
	n, err := EnumerateNonDecreasing([]float64{2, 2, 2, 2}, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("all-equal: %d arrangements, want 1", n)
	}
	// {1,1,2,2} on 2×2: valid matrices are [[1,1],[2,2]], [[1,2],[1,2]],
	// and [[1,2],[2,... wait 1 then 2? enumerate by hand: need rows and
	// cols non-decreasing: [[1,1],[2,2]], [[1,2],[1,2]], [[1,2],[2, ...]]
	// last needs remaining {1,2} with row1 >= [1,2] elementwise: [2, ?]
	// fails since remaining value 1 < 2. So 2 arrangements... plus
	// [[1,1],[2,2]] and [[1,2],[1,2]] only.
	n, err = EnumerateNonDecreasing([]float64{1, 1, 2, 2}, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("{1,1,2,2} on 2×2: %d arrangements, want 2", n)
	}
}

func TestEnumerateNonDecreasingEarlyStop(t *testing.T) {
	times := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	calls := 0
	n, err := EnumerateNonDecreasing(times, 3, 3, func(*Arrangement) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || n != 3 {
		t.Fatalf("early stop: calls=%d n=%d", calls, n)
	}
}

func TestEnumerateNonDecreasingErrors(t *testing.T) {
	if _, err := EnumerateNonDecreasing([]float64{1, 2, 3}, 2, 2, nil); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := EnumerateNonDecreasing([]float64{1, -2, 3, 4}, 2, 2, nil); err == nil {
		t.Fatal("expected positivity error")
	}
}

func TestEnumerateFirstIsRowMajor(t *testing.T) {
	// The lexicographically first non-decreasing arrangement is row-major
	// sorted — the heuristic's starting point.
	times := []float64{4, 1, 3, 2, 6, 5}
	var first *Arrangement
	if _, err := EnumerateNonDecreasing(times, 2, 3, func(a *Arrangement) bool {
		first = a.Clone()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	rm, _ := RowMajor(times, 2, 3)
	if !first.Equal(rm) {
		t.Fatalf("first enumerated:\n%swant row-major:\n%s", first, rm)
	}
}
