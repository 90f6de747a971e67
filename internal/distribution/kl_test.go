package distribution

import (
	"testing"

	"hetgrid/internal/grid"
)

// klArr is the paper's §3.1.2 example grid for the Kalinov–Lastovetsky
// distribution (Figure 3).
func klArr() *grid.Arrangement {
	return grid.MustNew([][]float64{{1, 2}, {3, 5}})
}

func TestKLColumnSplit(t *testing.T) {
	// §3.1.2: "out of every 61 matrix columns we assign 40 to the first
	// processor column and 21 to the second" (weights 3/2 vs 20/7).
	d, err := NewKL(klArr(), 4, 61)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.ColumnCounts()
	if counts[0] != 40 || counts[1] != 21 {
		t.Fatalf("column counts = %v, want [40 21]", counts)
	}
}

func TestKLRowSplitPerColumn(t *testing.T) {
	// First column {1,3}: 3 of every 4 rows to P11. Second column {2,5}:
	// 5 of every 7 rows to P12.
	d, err := NewKL(klArr(), 28, 61)
	if err != nil {
		t.Fatal(err)
	}
	rc0 := d.RowCountsIn(0)
	if rc0[0] != 21 || rc0[1] != 7 {
		t.Fatalf("column 0 row counts = %v, want [21 7] (3:1)", rc0)
	}
	rc1 := d.RowCountsIn(1)
	if rc1[0] != 20 || rc1[1] != 8 {
		t.Fatalf("column 1 row counts = %v, want [20 8] (5:2)", rc1)
	}
}

func TestKLBreaksGridPattern(t *testing.T) {
	// Figure 3's point: adjacent processor columns split rows differently,
	// so some processor has two west neighbours.
	d, err := NewKL(klArr(), 28, 61)
	if err != nil {
		t.Fatal(err)
	}
	stats := ComputeNeighborStats(d)
	if stats.GridPattern {
		t.Fatal("KL distribution unexpectedly honoured the grid pattern")
	}
	if stats.MaxWest < 2 {
		t.Fatalf("expected ≥ 2 west neighbours, got %d", stats.MaxWest)
	}
}

func TestKLGoodLoadBalance(t *testing.T) {
	// KL balances load well despite the communication penalty: efficiency
	// close to 1 for a big enough matrix.
	arr := klArr()
	d, err := NewKL(arr, 56, 61)
	if err != nil {
		t.Fatal(err)
	}
	eff := loadEfficiency(d, arr)
	if eff < 0.9 {
		t.Fatalf("KL efficiency %v unexpectedly poor", eff)
	}
	// Uniform cyclic on the same grid is much worse (limited by the
	// cycle-time-5 processor owning a quarter of the blocks).
	u, _ := UniformBlockCyclic(2, 2, 56, 61)
	if ueff := loadEfficiency(u, arr); ueff >= eff {
		t.Fatalf("uniform (%v) should be worse than KL (%v)", ueff, eff)
	}
}

func TestKLOwnerConsistency(t *testing.T) {
	d, err := NewKL(klArr(), 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, q := d.Dims()
	nbr, nbc := d.Blocks()
	if nbr != 8 || nbc != 9 {
		t.Fatalf("blocks %d×%d", nbr, nbc)
	}
	total := 0
	counts := blockCounts(d)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			total += counts[i][j]
		}
	}
	if total != nbr*nbc {
		t.Fatalf("KL counts sum %d, want %d", total, nbr*nbc)
	}
	// All blocks in one block-column share the processor column.
	for bj := 0; bj < nbc; bj++ {
		_, pj0 := d.Owner(0, bj)
		for bi := 1; bi < nbr; bi++ {
			if _, pj := d.Owner(bi, bj); pj != pj0 {
				t.Fatalf("block column %d split across processor columns", bj)
			}
		}
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestKLInvalidDims(t *testing.T) {
	if _, err := NewKL(klArr(), 0, 4); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewKL(klArr(), 4, -1); err == nil {
		t.Fatal("negative columns accepted")
	}
}

func TestKLHomogeneousReducesToCyclicCounts(t *testing.T) {
	// With equal speeds KL degenerates to an even split.
	arr := grid.MustNew([][]float64{{1, 1}, {1, 1}})
	d, err := NewKL(arr, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := blockCounts(d)
	for i := range counts {
		for j := range counts[i] {
			if counts[i][j] != 16 {
				t.Fatalf("homogeneous KL counts %v, want all 16", counts)
			}
		}
	}
	if !ComputeNeighborStats(d).GridPattern {
		t.Fatal("homogeneous KL should honour the grid pattern")
	}
}
