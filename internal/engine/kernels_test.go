package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/matrix"
)

// engineDistributions returns the three families on a 2×2 grid.
func engineDistributions(t *testing.T, nb int) []distribution.Distribution {
	t.Helper()
	arr := grid.MustNew([][]float64{{1, 2}, {3, 5}})
	uni, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := distribution.NewKL(arr, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := distribution.NewPanel(sol, 4, 3, distribution.Contiguous, distribution.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := pan.Distribution(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return []distribution.Distribution{uni, pd, kl}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	const nb, r = 6, 3
	a := matrix.Random(nb*r, nb*r, rng)
	for _, d := range engineDistributions(t, nb) {
		var got *matrix.Dense
		_, err := RunOpts(4, Options{}, func(c *Comm) error {
			store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			// Every resident block must belong to this rank.
			for pos := range store.Blocks {
				if distribution.OwnerRank(d, pos[0], pos[1]) != c.Rank() {
					return fmt.Errorf("rank %d holds foreign block %v", c.Rank(), pos)
				}
			}
			full, err := Gather(c, d, store)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got = full
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !got.Equal(a) {
			t.Fatalf("%s: scatter/gather corrupted the matrix", d.Name())
		}
	}
}

func pick(cond bool, m *matrix.Dense) *matrix.Dense {
	if cond {
		return m
	}
	return nil
}

// TestMMIsMMIntoAZeroStore: MM, the entry point the benchmark module
// drives, fills a zero result store of its own exactly as MMInto fills one
// the caller allocates (the facade's path).
func TestMMIsMMIntoAZeroStore(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	const nb, r = 4, 2
	a, b := matrix.Random(nb*r, nb*r, rng), matrix.Random(nb*r, nb*r, rng)
	d := engineDistributions(t, nb)[2] // KL
	var outs [2]*matrix.Dense
	for i := range outs {
		_, err := RunOpts(4, Options{}, func(c *Comm) error {
			as, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			bs, err := Scatter(c, d, pick(c.Rank() == 0, b), r)
			if err != nil {
				return err
			}
			cs := ZeroStore(c, d, r)
			if i == 0 {
				cs, err = MM(c, d, as, bs)
			} else {
				err = MMInto(c, d, as, bs, cs)
			}
			if err != nil {
				return err
			}
			full, err := Gather(c, d, cs)
			if c.Rank() == 0 {
				outs[i] = full
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !outs[0].Equal(outs[1]) {
		t.Fatal("MM differs from MMInto on a zero store")
	}
}

func TestKernelValidation(t *testing.T) {
	rect, err := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := RunOpts(4, Options{}, func(c *Comm) error {
		_, err := MM(c, rect, newBlockStore(2), newBlockStore(2))
		return err
	})
	if runErr == nil {
		t.Fatal("rectangular MM accepted")
	}
	_, runErr = RunOpts(4, Options{}, func(c *Comm) error {
		return LU(c, rect, newBlockStore(2))
	})
	if runErr == nil {
		t.Fatal("rectangular LU accepted")
	}
}

func TestScatterValidation(t *testing.T) {
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	_, err := RunOpts(4, Options{}, func(c *Comm) error {
		if c.Rank() != 0 {
			// Only rank 0 participates: it must fail fast on the nil
			// matrix, before any messages flow.
			return nil
		}
		_, err := Scatter(c, d, nil, 2)
		return err
	})
	if err == nil {
		t.Fatal("nil matrix at rank 0 accepted")
	}
}

// TestGatherIntoSplicesSelection: on a non-square 3×5 block matrix the
// blocks of the region at the step, and only those, overwrite the
// destination at rank 0, and only the region's remote blocks travel, one
// pack per block row and remote owner.
func TestGatherIntoSplicesSelection(t *testing.T) {
	const nbr, nbc, r = 3, 5, 2
	d, err := distribution.UniformBlockCyclic(2, 2, nbr, nbc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(183))
	a := matrix.Random(nbr*r, nbc*r, rng)
	base := matrix.Random(nbr*r, nbc*r, rng)
	for _, sel := range []struct {
		region distribution.Region
		k      int
	}{{distribution.All, 0}, {distribution.Trailing, 1}, {distribution.Trailing, 4}, {distribution.TrailingLower, 1}} {
		dst := base.Clone()
		w, err := RunOpts(4, Options{}, func(c *Comm) error {
			store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			return GatherInto(c, d, store, "delta", pick(c.Rank() == 0, dst), sel.region, sel.k)
		})
		if err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < nbr; bi++ {
			for bj := 0; bj < nbc; bj++ {
				in := sel.region.Contains(bi, bj, sel.k)
				want := base
				if in {
					want = a
				}
				if !blockView(dst, bi, bj, r).Equal(blockView(want, bi, bj, r)) {
					t.Fatalf("%+v: block (%d,%d): selected %v, wrong contents", sel, bi, bj, in)
				}
			}
		}
		block := float64(8 * r * r)
		scattered, gathered := distribution.MasterVolume(d, block, distribution.All, 0), distribution.MasterVolume(d, block, sel.region, sel.k)
		if w.Messages() != scattered.Messages+gathered.Messages || w.Bytes() != int(scattered.Bytes+gathered.Bytes) {
			t.Fatalf("%+v: %d messages, %d bytes; want %+v scattered + %+v gathered", sel, w.Messages(), w.Bytes(), *scattered, *gathered)
		}
	}
}

// TestGatherIntoAbortLeavesDestination: a gather that loses a sender leaves
// the destination untouched — including rank 0's own selected blocks, which
// a copy-as-you-go gather would have written before it noticed.
func TestGatherIntoAbortLeavesDestination(t *testing.T) {
	const nb, r = 4, 2
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(184))
	a := matrix.Random(nb*r, nb*r, rng)
	base := matrix.Random(nb*r, nb*r, rng)
	dst := base.Clone()
	lost := fmt.Errorf("rank 3 is gone")
	_, err = RunOpts(4, Options{}, func(c *Comm) error {
		store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			return lost
		}
		return GatherInto(c, d, store, "delta", pick(c.Rank() == 0, dst), distribution.All, 0)
	})
	if !errors.Is(err, lost) {
		t.Fatalf("want the sender's failure, got %v", err)
	}
	if !dst.Equal(base) {
		t.Fatal("an aborted gather wrote into its destination")
	}
}

func TestBlockStorePanicsOnForeignBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-resident block")
		}
	}()
	newBlockStore(2).Get(0, 0)
}
