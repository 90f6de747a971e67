package distribution

import (
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
)

func volArr() *grid.Arrangement {
	return grid.MustNew([][]float64{{1, 2}, {3, 5}})
}

func volPanel(t *testing.T, nb int) Distribution {
	t.Helper()
	sol, _, err := core.SolveArrangementExactOpt(volArr(), core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := NewPanel(sol, 4, 3, Contiguous, Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pan.Distribution(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMMCommVolumeProductGrid(t *testing.T) {
	// Product distribution on a 2×2 grid: each step sends p·(q−1)=2 A
	// messages and (p−1)·q=2 B messages; per step, every block reaches one
	// remote receiver, so bytes = 2·nb·blockBytes per step.
	nb := 12
	d := volPanel(t, nb)
	vol, err := MMCommVolume(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if vol.Messages != nb*4 {
		t.Fatalf("messages %d, want %d", vol.Messages, nb*4)
	}
	if vol.Bytes != float64(nb)*2*float64(nb)*100 {
		t.Fatalf("bytes %v, want %v", vol.Bytes, float64(nb)*2*float64(nb)*100)
	}
}

func TestMMCommVolumeKLHigher(t *testing.T) {
	nb := 28
	kl, err := NewKL(volArr(), nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	klVol, err := MMCommVolume(kl, 100)
	if err != nil {
		t.Fatal(err)
	}
	panVol, err := MMCommVolume(volPanel(t, nb), 100)
	if err != nil {
		t.Fatal(err)
	}
	if klVol.Messages <= panVol.Messages {
		t.Fatalf("KL messages %d not above panel %d", klVol.Messages, panVol.Messages)
	}
}

func TestCommVolumeValidation(t *testing.T) {
	d, _ := UniformBlockCyclic(2, 2, 4, 6)
	if _, err := MMCommVolume(d, 1); err == nil {
		t.Fatal("rectangular block matrix accepted by MM")
	}
	if _, err := LUCommVolume(d, 1); err == nil {
		t.Fatal("rectangular block matrix accepted by LU")
	}
}

// TestCommVolumesOrderByKernel: on one layout the multiplication, which
// touches the whole matrix every step, moves more bytes than LU, whose
// active matrix shrinks; Cholesky (no U panel, lower triangle only) moves
// fewer than LU.
func TestCommVolumesOrderByKernel(t *testing.T) {
	d, err := UniformBlockCyclic(2, 2, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := MMCommVolume(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := LUCommVolume(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := CholeskyCommVolume(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Messages <= 0 || lu.Messages <= 0 || chol.Messages <= 0 {
		t.Fatalf("volumes empty: mm=%+v lu=%+v cholesky=%+v", mm, lu, chol)
	}
	if mm.Bytes <= lu.Bytes {
		t.Fatalf("MM bytes %v not above LU bytes %v", mm.Bytes, lu.Bytes)
	}
	if chol.Bytes >= lu.Bytes {
		t.Fatalf("Cholesky volume %+v not below LU's %+v", chol, lu)
	}
}

func TestLUCommVolumeDecreasesWithSmallerMatrix(t *testing.T) {
	big, err := LUCommVolume(volPanel(t, 24), 64)
	if err != nil {
		t.Fatal(err)
	}
	small, err := LUCommVolume(volPanel(t, 12), 64)
	if err != nil {
		t.Fatal(err)
	}
	if small.Messages >= big.Messages || small.Bytes >= big.Bytes {
		t.Fatalf("volume did not shrink: %+v vs %+v", small, big)
	}
}

func TestPlanRedistributionIdentity(t *testing.T) {
	d := volPanel(t, 12)
	plan, err := PlanRedistribution(d, d)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BlockCount() != 0 || len(plan.Pairs()) != 0 || plan.Bytes(100) != 0 {
		t.Fatalf("identity redistribution not empty: %d blocks", plan.BlockCount())
	}
}

// TestPlanRedistributionIdentityUniform: the homogeneous block-cyclic
// layout, which hetgrid.Uniform returns, moves nothing onto itself either.
func TestPlanRedistributionIdentityUniform(t *testing.T) {
	uni, err := UniformBlockCyclic(2, 2, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRedistribution(uni, uni)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BlockCount() != 0 {
		t.Fatalf("identity plan not empty: %d blocks", plan.BlockCount())
	}
}

func TestPlanRedistributionUniformToPanel(t *testing.T) {
	nb := 12
	uni, _ := UniformBlockCyclic(2, 2, nb, nb)
	pan := volPanel(t, nb)
	plan, err := PlanRedistribution(uni, pan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BlockCount() == 0 {
		t.Fatal("no blocks move between different distributions")
	}
	if plan.BlockCount() > nb*nb {
		t.Fatalf("more moves (%d) than blocks (%d)", plan.BlockCount(), nb*nb)
	}
	// Every move's endpoints must be consistent with the distributions.
	_, q := uni.Dims()
	for _, m := range plan.Moves {
		si, sj := uni.Owner(m.Bi, m.Bj)
		di, dj := pan.Owner(m.Bi, m.Bj)
		if m.Src != si*q+sj || m.Dst != di*q+dj {
			t.Fatalf("move %+v inconsistent with distributions", m)
		}
		if m.Src == m.Dst {
			t.Fatalf("self-move emitted: %+v", m)
		}
	}
	// Pair counts sum to the move count.
	total := 0
	for _, pr := range plan.Pairs() {
		total += pr.Count
	}
	if total != plan.BlockCount() {
		t.Fatalf("pair counts %d != moves %d", total, plan.BlockCount())
	}
	if plan.Bytes(100) != float64(plan.BlockCount())*100 {
		t.Fatal("bytes inconsistent")
	}
}

func TestPlanRedistributionValidation(t *testing.T) {
	a, _ := UniformBlockCyclic(2, 2, 8, 8)
	b, _ := UniformBlockCyclic(2, 3, 8, 8)
	if _, err := PlanRedistribution(a, b); err == nil {
		t.Fatal("mismatched grids accepted")
	}
	c, _ := UniformBlockCyclic(2, 2, 8, 9)
	if _, err := PlanRedistribution(a, c); err == nil {
		t.Fatal("mismatched block matrices accepted")
	}
}

func TestPairsDeterministic(t *testing.T) {
	nb := 12
	uni, _ := UniformBlockCyclic(2, 2, nb, nb)
	pan := volPanel(t, nb)
	p1, err := PlanRedistribution(uni, pan)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanRedistribution(uni, pan)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p1.Pairs(), p2.Pairs()
	if len(a) != len(b) {
		t.Fatal("pair lists differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pair order not deterministic")
		}
	}
}

func TestMasterVolumeUniform(t *testing.T) {
	// 2×2 block-cyclic over 4×4 blocks: even block rows belong to ranks 0
	// and 1 (one remote owner), odd rows to ranks 2 and 3 (two); 12 of the
	// 16 blocks are remote. LU's trailing region at step 2 keeps one block
	// of each rank: rank 1's on row 2, ranks 2's and 3's on row 3.
	// Cholesky's at step 1 keeps six blocks, five remote: rank 3's (1,1),
	// rank 1's (2,1), and on row 3 rank 3's two and rank 2's one.
	d, err := UniformBlockCyclic(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r          Region
		k          int
		msgs, blks int
	}{{All, 0, 6, 12}, {Trailing, 2, 3, 3}, {TrailingLower, 1, 4, 5}, {Trailing, 4, 0, 0}} {
		if vol := MasterVolume(d, 8, c.r, c.k); vol.Messages != c.msgs || vol.Bytes != float64(c.blks*8) {
			t.Fatalf("region %d at step %d: %+v, want %d messages, %d bytes", c.r, c.k, *vol, c.msgs, c.blks*8)
		}
	}
}
