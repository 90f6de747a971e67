// Package grid models heterogeneous 2D processor grids: arrangements of
// processor cycle-times into a p×q matrix, the row-major canonical
// arrangement used by the heuristic of Beaumont et al., enumeration of the
// non-decreasing arrangements that Theorem 1 of the paper reduces the search
// to, and the rank-1 structure test that characterizes perfectly balanceable
// grids.
//
// Throughout hetgrid a processor's cycle-time is the normalized time it
// needs to update one r×r matrix block: a processor with cycle-time 1 is
// twice as fast as one with cycle-time 2.
package grid

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Arrangement is a p×q assignment of processor cycle-times to grid
// positions. T[i][j] is the cycle-time of the processor at grid row i,
// column j. All cycle-times must be positive.
type Arrangement struct {
	P, Q int
	T    [][]float64
}

// New returns an arrangement from a cycle-time matrix, validating shape and
// positivity. The arrangement holds its own copy of the values.
func New(t [][]float64) (*Arrangement, error) {
	p := len(t)
	if p == 0 {
		return nil, fmt.Errorf("grid: empty arrangement")
	}
	q := len(t[0])
	if q == 0 {
		return nil, fmt.Errorf("grid: arrangement with empty rows")
	}
	data := make([]float64, 0, p*q)
	for i, row := range t {
		if len(row) != q {
			return nil, fmt.Errorf("grid: ragged arrangement: row 0 has %d entries, row %d has %d", q, i, len(row))
		}
		data = append(data, row...)
	}
	return FromData(data, p, q)
}

// FromData validates the row-major p·q cycle-times in data and returns
// them as a p×q arrangement without copying: the arrangement takes data
// over, and the caller must not write it afterwards.
func FromData(data []float64, p, q int) (*Arrangement, error) {
	if len(data) != p*q {
		return nil, fmt.Errorf("grid: %d cycle-times cannot fill a %d×%d grid", len(data), p, q)
	}
	if p <= 0 {
		return nil, fmt.Errorf("grid: empty arrangement")
	}
	if q <= 0 {
		return nil, fmt.Errorf("grid: arrangement with empty rows")
	}
	for k, v := range data {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("grid: cycle-time t[%d][%d] = %v must be positive and finite", k/q, k%q, v)
		}
	}
	return rowsOf(data, p, q), nil
}

// rowsOf returns the p×q arrangement whose rows are consecutive q-value
// windows of data, one backing array for the whole matrix. Each row's
// capacity ends with the row, so an append to one never writes the next.
func rowsOf(data []float64, p, q int) *Arrangement {
	t := make([][]float64, p)
	for i := range t {
		t[i] = data[i*q : (i+1)*q : (i+1)*q]
	}
	return &Arrangement{P: p, Q: q, T: t}
}

// MustNew is New that panics on error, for literals in tests and examples.
func MustNew(t [][]float64) *Arrangement {
	a, err := New(t)
	if err != nil {
		panic(err)
	}
	return a
}

// RowMajor arranges the given cycle-times into a p×q grid sorted row-major
// ascending — the initial arrangement of the paper's polynomial heuristic
// (§4.4.1): within each row cycle-times increase left to right, and the last
// entry of a row does not exceed the first entry of the next row.
// len(times) must equal p*q.
func RowMajor(times []float64, p, q int) (*Arrangement, error) {
	if len(times) != p*q {
		return nil, fmt.Errorf("grid: %d cycle-times cannot fill a %d×%d grid", len(times), p, q)
	}
	sorted := append([]float64(nil), times...)
	slices.Sort(sorted)
	return FromData(sorted, p, q)
}

// Clone returns a deep copy.
func (a *Arrangement) Clone() *Arrangement {
	return rowsOf(a.Times(), a.P, a.Q)
}

// Times returns all cycle-times of the arrangement in row-major order.
func (a *Arrangement) Times() []float64 {
	out := make([]float64, 0, a.P*a.Q)
	for _, row := range a.T {
		out = append(out, row...)
	}
	return out
}

// Equal reports whether two arrangements are entry-wise identical.
func (a *Arrangement) Equal(b *Arrangement) bool {
	if a.P != b.P || a.Q != b.Q {
		return false
	}
	for i := range a.T {
		for j := range a.T[i] {
			if a.T[i][j] != b.T[i][j] {
				return false
			}
		}
	}
	return true
}

// IsNonDecreasing reports whether cycle-times are non-decreasing along every
// grid row and every grid column — the canonical form of §4.2.
func (a *Arrangement) IsNonDecreasing() bool {
	for i := 0; i < a.P; i++ {
		for j := 0; j+1 < a.Q; j++ {
			if a.T[i][j] > a.T[i][j+1] {
				return false
			}
		}
	}
	for j := 0; j < a.Q; j++ {
		for i := 0; i+1 < a.P; i++ {
			if a.T[i][j] > a.T[i+1][j] {
				return false
			}
		}
	}
	return true
}

// Rank1Tolerance is the default relative tolerance for IsRank1.
const Rank1Tolerance = 1e-9

// IsRank1 reports whether the cycle-time matrix has numerical rank 1 within
// relative tolerance tol (every 2×2 minor vanishes relative to the product
// of its entries). Rank-1 arrangements admit a perfect load balance
// (§4.3.2). Pass tol <= 0 for the default.
func (a *Arrangement) IsRank1(tol float64) bool {
	if tol <= 0 {
		tol = Rank1Tolerance
	}
	for i := 0; i+1 < a.P; i++ {
		for j := 0; j+1 < a.Q; j++ {
			// t[i][j]*t[i+1][j+1] == t[i][j+1]*t[i+1][j] for rank 1.
			lhs := a.T[i][j] * a.T[i+1][j+1]
			rhs := a.T[i][j+1] * a.T[i+1][j]
			if math.Abs(lhs-rhs) > tol*math.Max(math.Abs(lhs), math.Abs(rhs)) {
				return false
			}
		}
	}
	return true
}

// Transpose returns the q×p arrangement with rows and columns exchanged.
func (a *Arrangement) Transpose() *Arrangement {
	t := make([][]float64, a.Q)
	for j := 0; j < a.Q; j++ {
		t[j] = make([]float64, a.P)
		for i := 0; i < a.P; i++ {
			t[j][i] = a.T[i][j]
		}
	}
	return &Arrangement{P: a.Q, Q: a.P, T: t}
}

// String renders the arrangement as rows of cycle-times.
func (a *Arrangement) String() string {
	var sb strings.Builder
	for _, row := range a.T {
		sb.WriteByte('[')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%g", v)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// EnumerateNonDecreasing calls visit for every arrangement of times into a
// p×q grid whose rows and columns are non-decreasing (the search space that
// Theorem 1 reduces the 2D load-balancing problem to). Duplicate cycle-time
// values produce each distinct *matrix* once, not each permutation of equal
// values. Arrangements come in lexicographic row-major order: cells are
// filled row by row, each with the smallest value that still leads to an
// arrangement first, so the order is fixed by the multiset alone.
//
// A value v fits cell (i, j) only if it is at least its left and upper
// neighbours and inside the rank window: the (p−i)(q−j) cells from (i, j)
// to the bottom-right corner, all still empty, hold v and values ≥ v, so
// at least (p−i)(q−j) of the values not yet placed must be ≥ v. (The cells
// above and to the left hold values ≤ v by the neighbour rule.) Both
// conditions are necessary, so the window only cuts subtrees that hold no
// arrangement and leaves the order as it was.
//
// The Arrangement passed to visit is the enumerator's own and is
// overwritten by the next one: a visit that keeps it must Clone it. If
// visit returns false the enumeration stops; a nil visit only counts.
// Returns the number of arrangements visited.
func EnumerateNonDecreasing(times []float64, p, q int, visit func(*Arrangement) bool) (int, error) {
	if len(times) != p*q {
		return 0, fmt.Errorf("grid: %d cycle-times cannot fill a %d×%d grid", len(times), p, q)
	}
	if p <= 0 || q <= 0 {
		return 0, fmt.Errorf("grid: invalid dimensions %d×%d", p, q)
	}
	sorted := append([]float64(nil), times...)
	slices.Sort(sorted)
	for _, v := range sorted {
		if !(v > 0) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("grid: cycle-time %v must be positive and finite", v)
		}
	}
	e := &nonDecreasing{
		p: p, q: q,
		vals:  make([]float64, 0, p*q),
		left:  make([]int, 0, p*q),
		cell:  make([]int, p*q),
		arr:   rowsOf(make([]float64, p*q), p, q),
		visit: visit,
	}
	for _, v := range sorted {
		if k := len(e.vals); k > 0 && e.vals[k-1] == v {
			e.left[k-1]++
			continue
		}
		e.vals = append(e.vals, v)
		e.left = append(e.left, 1)
	}
	e.fill(0)
	return e.count, nil
}

// nonDecreasing is the state of one EnumerateNonDecreasing: the distinct
// values ascending, how many of each are not yet placed, and the distinct
// value's index in every filled cell (row-major).
type nonDecreasing struct {
	p, q    int
	vals    []float64
	left    []int
	cell    []int
	arr     *Arrangement
	visit   func(*Arrangement) bool
	count   int
	stopped bool
}

// fill places every value that fits cell pos, in ascending order, and
// recurses into the next cell.
func (e *nonDecreasing) fill(pos int) {
	q := e.q
	if pos == len(e.cell) {
		e.count++
		if e.visit != nil && !e.visit(e.arr) {
			e.stopped = true
		}
		return
	}
	i, j := pos/q, pos%q
	g := 0
	if j > 0 {
		g = e.cell[pos-1]
	}
	if i > 0 {
		g = max(g, e.cell[pos-q])
	}
	ge := 0 // values not yet placed that are ≥ vals[g]
	for _, c := range e.left[g:] {
		ge += c
	}
	for need := (e.p - i) * (q - j); ge >= need; g++ {
		c := e.left[g]
		if c == 0 {
			continue
		}
		e.left[g]--
		e.cell[pos] = g
		e.arr.T[i][j] = e.vals[g]
		e.fill(pos + 1)
		e.left[g]++
		if e.stopped {
			return
		}
		ge -= c
	}
}

// EnumerateAll calls visit for every distinct arrangement (matrix) of the
// cycle-time multiset on a p×q grid, with no monotonicity constraint —
// (pq)!/(multiplicities!) matrices. It exists to verify Theorem 1 (§4.2)
// empirically: the optimum over all arrangements is attained at a
// non-decreasing one. Exponential; intended for tiny grids in tests. The
// Arrangement passed to visit is freshly allocated. Returns the number of
// arrangements visited.
func EnumerateAll(times []float64, p, q int, visit func(*Arrangement) bool) (int, error) {
	if len(times) != p*q {
		return 0, fmt.Errorf("grid: %d cycle-times cannot fill a %d×%d grid", len(times), p, q)
	}
	if p <= 0 || q <= 0 {
		return 0, fmt.Errorf("grid: invalid dimensions %d×%d", p, q)
	}
	sorted := append([]float64(nil), times...)
	slices.Sort(sorted)
	for _, v := range sorted {
		if !(v > 0) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("grid: cycle-time %v must be positive and finite", v)
		}
	}
	n := p * q
	t := make([][]float64, p)
	for i := range t {
		t[i] = make([]float64, q)
	}
	used := make([]bool, n)
	count := 0
	stopped := false
	var rec func(pos int)
	rec = func(pos int) {
		if stopped {
			return
		}
		if pos == n {
			count++
			if visit != nil {
				arr := &Arrangement{P: p, Q: q, T: t}
				if !visit(arr.Clone()) {
					stopped = true
				}
			}
			return
		}
		i, j := pos/q, pos%q
		prev := math.NaN()
		for k := 0; k < n; k++ {
			// Skip duplicates of the same value to emit each matrix once.
			if used[k] || sorted[k] == prev {
				continue
			}
			prev = sorted[k]
			used[k] = true
			t[i][j] = sorted[k]
			rec(pos + 1)
			used[k] = false
			if stopped {
				return
			}
		}
	}
	rec(0)
	return count, nil
}

// HookLengthCount returns the number of standard Young tableaux of shape
// p×q via the hook length formula: (pq)! / Π hooks. It equals the number of
// non-decreasing arrangements when all cycle-times are distinct, and is used
// to cross-check the enumerator. Computed in big-ish float to keep exact for
// the small shapes used here; result must fit an int.
func HookLengthCount(p, q int) int {
	// hook(i,j) = (p - i) + (q - j) - 1 for 0-based (i,j).
	// Compute (pq)! / prod(hooks) with prime-free pairing: use float64 with
	// logs would lose exactness; instead use a rational accumulation over
	// int64 by interleaving multiplications and divisions greedily.
	n := p * q
	num := make([]int, 0, n)
	for i := 2; i <= n; i++ {
		num = append(num, i)
	}
	den := make([]int, 0, n)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			den = append(den, (p-i)+(q-j)-1)
		}
	}
	// Cancel common factors pairwise.
	result := 1
	rem := append([]int(nil), num...)
	for _, d := range den {
		dd := d
		for k := range rem {
			if dd == 1 {
				break
			}
			g := gcd(rem[k], dd)
			rem[k] /= g
			dd /= g
		}
		if dd != 1 {
			panic(fmt.Sprintf("grid: hook length division not exact for %d×%d", p, q))
		}
	}
	for _, r := range rem {
		result = mulCheck(result, r)
	}
	return result
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func mulCheck(a, b int) int {
	c := a * b
	if a != 0 && c/a != b {
		panic("grid: tableau count overflows int")
	}
	return c
}
