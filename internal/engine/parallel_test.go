package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

// The intra-rank parallelism contract: any Options.Parallelism value must
// produce results bit-identical to the serial replay, because a step's
// update packs its operands first and then splits only the block products,
// whose outputs are disjoint. These tests mirror the golden tests with
// workers > 1.

var parallelWorkerCounts = []int{2, 3, 8}

// parallelBlockSizes: at r = 3 every block product runs the scalar
// reference; r = 20 takes the packed path the engine runs at r = 32, with a
// rim on both tiles (4 columns of the 4×8 Strict tile; 2 rows and 4 columns
// of the 6×8 Fast tile).
var parallelBlockSizes = []int{3, 20}

func TestMMParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	const nb = 6
	for _, r := range parallelBlockSizes {
		a := matrix.Random(nb*r, nb*r, rng)
		b := matrix.Random(nb*r, nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayMMNumerics(d, a, b, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				for _, workers := range parallelWorkerCounts {
					got := runEngineMM(t, Options{Broadcast: bk.kind, Parallelism: workers}, d, a, b, r)
					if !got.Equal(rep.C) {
						t.Fatalf("%s/%s/r=%d/p=%d: parallel MM not bit-identical to replay", d.Name(), bk.name, r, workers)
					}
				}
			}
		}
	}
}

func TestLUParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	const nb = 6
	for _, r := range parallelBlockSizes {
		a := matrix.RandomWellConditioned(nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayLUNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range parallelWorkerCounts {
				var got *matrix.Dense
				_, err := RunOpts(4, Options{Parallelism: workers}, func(c *Comm) error {
					s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					if err := LU(c, d, s); err != nil {
						return err
					}
					full, err := Gather(c, d, s)
					if c.Rank() == 0 {
						got = full
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s/r=%d/p=%d: %v", d.Name(), r, workers, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s/r=%d/p=%d: parallel LU not bit-identical to replay", d.Name(), r, workers)
				}
			}
		}
	}
}

func TestCholeskyParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	const nb = 6
	for _, r := range parallelBlockSizes {
		a := matrix.RandomSPD(nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayCholeskyNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range parallelWorkerCounts {
				var got *matrix.Dense
				_, err := RunOpts(4, Options{Parallelism: workers}, func(c *Comm) error {
					s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					if err := Cholesky(c, d, s); err != nil {
						return err
					}
					full, err := Gather(c, d, s)
					if c.Rank() == 0 {
						got = full
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s/r=%d/p=%d: %v", d.Name(), r, workers, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s/r=%d/p=%d: parallel Cholesky not bit-identical to replay", d.Name(), r, workers)
				}
			}
		}
	}
}
