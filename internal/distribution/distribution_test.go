package distribution

import (
	"math"
	"math/rand"
	"testing"

	"hetgrid/internal/grid"
)

func TestUniformBlockCyclic(t *testing.T) {
	d, err := UniformBlockCyclic(2, 3, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, q := d.Dims()
	if p != 2 || q != 3 {
		t.Fatalf("dims %d×%d", p, q)
	}
	nbr, nbc := d.Blocks()
	if nbr != 10 || nbc != 9 {
		t.Fatalf("blocks %d×%d", nbr, nbc)
	}
	pi, pj := d.Owner(7, 5)
	if pi != 1 || pj != 2 {
		t.Fatalf("Owner(7,5) = (%d,%d), want (1,2)", pi, pj)
	}
	counts := blockCounts(d)
	if counts[0][0] != 5*3 || counts[1][2] != 5*3 {
		t.Fatalf("counts = %v", counts)
	}
	if !ComputeNeighborStats(d).GridPattern {
		t.Fatal("uniform cyclic must honour the grid pattern")
	}
}

func TestUniformBlockCyclicBadDims(t *testing.T) {
	if _, err := UniformBlockCyclic(2, 2, 0, 4); err == nil {
		t.Fatal("expected error for zero blocks")
	}
}

func TestNewProductValidation(t *testing.T) {
	if _, err := NewProduct(0, 2, []int{0}, []int{0}, "x"); err == nil {
		t.Fatal("invalid grid accepted")
	}
	if _, err := NewProduct(2, 2, nil, []int{0}, "x"); err == nil {
		t.Fatal("empty row owners accepted")
	}
	if _, err := NewProduct(2, 2, []int{2}, []int{0}, "x"); err == nil {
		t.Fatal("out-of-range row owner accepted")
	}
	if _, err := NewProduct(2, 2, []int{0}, []int{-1}, "x"); err == nil {
		t.Fatal("negative column owner accepted")
	}
	d, err := NewProduct(2, 2, []int{0, 1}, []int{1, 0}, "ok")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ok" {
		t.Fatalf("Name = %q", d.Name())
	}
	// Owner maps must be copied.
	ro := []int{0, 1}
	d2, _ := NewProduct(2, 2, ro, []int{0}, "y")
	ro[0] = 1
	if d2.RowOwner[0] != 0 {
		t.Fatal("NewProduct aliased input")
	}
}

func TestCountsPartitionAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(3)
		q := 1 + rng.Intn(3)
		nbr := p + rng.Intn(20)
		nbc := q + rng.Intn(20)
		rowOwner := make([]int, nbr)
		for i := range rowOwner {
			rowOwner[i] = rng.Intn(p)
		}
		colOwner := make([]int, nbc)
		for j := range colOwner {
			colOwner[j] = rng.Intn(q)
		}
		d, err := NewProduct(p, q, rowOwner, colOwner, "rand")
		if err != nil {
			t.Fatal(err)
		}
		counts := blockCounts(d)
		total := 0
		for i := range counts {
			for j := range counts[i] {
				total += counts[i][j]
			}
		}
		if total != nbr*nbc {
			t.Fatalf("counts sum %d, want %d", total, nbr*nbc)
		}
	}
}

func TestProductAlwaysGridPattern(t *testing.T) {
	// Any product distribution has at most one west and one north
	// neighbour per processor — the structural property the paper's panel
	// scheme is designed around.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(4)
		q := 1 + rng.Intn(4)
		nbr := 1 + rng.Intn(24)
		nbc := 1 + rng.Intn(24)
		rowOwner := make([]int, nbr)
		for i := range rowOwner {
			rowOwner[i] = rng.Intn(p)
		}
		colOwner := make([]int, nbc)
		for j := range colOwner {
			colOwner[j] = rng.Intn(q)
		}
		d, _ := NewProduct(p, q, rowOwner, colOwner, "rand")
		if s := ComputeNeighborStats(d); !s.GridPattern {
			t.Fatalf("product distribution broke grid pattern: %+v", s)
		}
	}
}

// blockCounts returns the number of blocks each processor owns.
func blockCounts(d Distribution) [][]int {
	p, q := d.Dims()
	nbr, nbc := d.Blocks()
	counts := make([][]int, p)
	for i := range counts {
		counts[i] = make([]int, q)
	}
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			pi, pj := d.Owner(bi, bj)
			counts[pi][pj]++
		}
	}
	return counts
}

// loadEfficiency is mean/max of the per-processor compute times
// blocks·t_ij: 1 is a perfect balance of the block-update work.
func loadEfficiency(d Distribution, arr *grid.Arrangement) float64 {
	counts := blockCounts(d)
	sum, max := 0.0, 0.0
	for i, row := range counts {
		for j, c := range row {
			v := float64(c) * arr.T[i][j]
			sum += v
			if v > max {
				max = v
			}
		}
	}
	return sum / float64(arr.P*arr.Q) / max
}

func TestRoundShares(t *testing.T) {
	got, err := roundShares([]float64{1, 1.0 / 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 1 {
		t.Fatalf("roundShares = %v, want [3 1]", got)
	}
	got, err = roundShares([]float64{1, 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 2 {
		t.Fatalf("roundShares = %v, want [4 2]", got)
	}
	// Errors.
	if _, err := roundShares(nil, 3); err == nil {
		t.Fatal("empty shares accepted")
	}
	if _, err := roundShares([]float64{1, -1}, 3); err == nil {
		t.Fatal("negative share accepted")
	}
	if _, err := roundShares([]float64{1}, -1); err == nil {
		t.Fatal("negative total accepted")
	}
}

func TestRoundSharesPreservesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		shares := make([]float64, n)
		for i := range shares {
			shares[i] = 0.01 + rng.Float64()
		}
		total := rng.Intn(40)
		counts, err := roundShares(shares, total)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, c := range counts {
			if c < 0 {
				t.Fatalf("negative count %d", c)
			}
			// Largest-remainder never deviates more than 1 from the floor
			// of the exact share... allow a slack of 1 from exact.
			exact := shares[i] / sumOf(shares) * float64(total)
			if math.Abs(float64(c)-exact) >= 1+1e-9 {
				t.Fatalf("count %d deviates from exact %v by ≥ 1", c, exact)
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("counts %v sum %d, want %d", counts, sum, total)
		}
	}
}

func sumOf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func TestRenderWithArrangement(t *testing.T) {
	arr := grid.MustNew([][]float64{{1, 2}, {3, 6}})
	d, _ := UniformBlockCyclic(2, 2, 2, 2)
	s := Render(d, arr)
	want := "   1   2\n   3   6\n"
	if s != want {
		t.Fatalf("Render = %q, want %q", s, want)
	}
	coords := Render(d, nil)
	if coords == "" {
		t.Fatal("coordinate render empty")
	}
}
