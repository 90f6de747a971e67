package engine

import (
	"math/rand"
	"sync"
	"testing"

	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

// TestConcurrentFactorizationsMixedModes hammers the shared matrix-level
// worker pool from several concurrent distributed factorizations running
// different numerics modes and parallelism degrees — the -race sentinel
// for the pool's cross-world sharing.
func TestConcurrentFactorizationsMixedModes(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	const nb, r = 4, 4
	a := matrix.RandomWellConditioned(nb*r, rng)
	d := engineDistributions(t, nb)[0]
	want := map[matrix.Numerics]*matrix.Dense{}
	for _, mode := range []matrix.Numerics{matrix.Strict, matrix.Fast} {
		rep, err := kernels.ReplayLUNumerics(d, a, mode)
		if err != nil {
			t.Fatal(err)
		}
		want[mode] = rep.C
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		mode := matrix.Strict
		if g%2 == 1 {
			mode = matrix.Fast
		}
		workers := 1 + g%3
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got *matrix.Dense
			_, err := RunOpts(4, Options{Numerics: mode, Parallelism: workers}, func(c *Comm) error {
				store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
				if err != nil {
					return err
				}
				if err := LU(c, d, store); err != nil {
					return err
				}
				full, err := Gather(c, d, store)
				if c.Rank() == 0 {
					got = full
				}
				return err
			})
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(want[mode]) {
				errs <- errMismatch(mode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch matrix.Numerics

func (e errMismatch) Error() string {
	return "concurrent LU result diverged from its mode's serial replay (" + matrix.Numerics(e).String() + ")"
}
