package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

func faultTestDist(t *testing.T, nb int) distribution.Distribution {
	t.Helper()
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runLU scatters a, runs LU and gathers the packed factors at rank 0.
func runLU(t *testing.T, d distribution.Distribution, a *matrix.Dense, r int, opts Options) (*matrix.Dense, *World, error) {
	t.Helper()
	var out *matrix.Dense
	w, err := RunOpts(4, opts, func(c *Comm) error {
		full := a
		if c.Rank() != 0 {
			full = nil
		}
		s, err := Scatter(c, d, full, r)
		if err != nil {
			return err
		}
		if err := LU(c, d, s); err != nil {
			return err
		}
		g, err := Gather(c, d, s)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = g
		}
		return nil
	})
	return out, w, err
}

func TestSilentCrashDetectedByTimeout(t *testing.T) {
	// A silent crash tells nobody; the Recv deadline must declare the rank
	// dead and abort instead of hanging — under every broadcast kind.
	d := faultTestDist(t, 6)
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(2)))
	for _, bc := range allBroadcastKinds {
		t.Run(bc.name, func(t *testing.T) {
			_, w, err := runLU(t, d, a, 2, Options{
				Broadcast:   bc.kind,
				RecvTimeout: 140 * time.Millisecond,
				Faults:      &FaultConfig{Crashes: []CrashPoint{{Rank: 2, Step: 2, Silent: true}}},
			})
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("want *RankFailure, got %v", err)
			}
			if rf.Rank != 2 {
				t.Fatalf("failure names rank %d, want 2", rf.Rank)
			}
			if w.Timeouts() == 0 {
				t.Fatal("failure detector fired without any recorded timeouts")
			}
		})
	}
}

func TestRemainingCrashes(t *testing.T) {
	d := faultTestDist(t, 6)
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(5)))
	sched := []CrashPoint{{Rank: 1, Step: 2}, {Rank: 0, Step: 99}}
	_, w, err := runLU(t, d, a, 2, Options{Faults: &FaultConfig{Crashes: sched}})
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailure, got %v", err)
	}
	rem := w.RemainingCrashes()
	if len(rem) != 1 || rem[0] != sched[1] {
		t.Fatalf("remaining crashes %+v, want just %+v", rem, sched[1])
	}
	if fc := w.FaultCounters(); len(fc.Crashed) != 1 || fc.Crashed[0] != sched[0] {
		t.Fatalf("fired crashes %+v, want just %+v", fc.Crashed, sched[0])
	}
}

// TestResumeKernelsBitIdentical covers the one resume the recovery driver
// never makes: every kernel leaves its store at Step NB, and running it
// again on such a store changes no block and no tau. A resume from step
// k < NB, on the survivors' replanned grid, is TestConformance's crash
// cells.
func TestResumeKernelsBitIdentical(t *testing.T) {
	const nb, r = 6, 3
	rng := rand.New(rand.NewSource(6))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	d := engineDistributions(t, nb)[1] // het-panel
	for _, kern := range []struct {
		name string
		work *matrix.Dense // the working matrix before step 0
		run  func(c *Comm, s *BlockStore) error
	}{
		{"mm", matrix.New(nb*r, nb*r), func(c *Comm, s *BlockStore) error {
			as, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			bs, err := Scatter(c, d, pick(c.Rank() == 0, b), r)
			if err != nil {
				return err
			}
			return MMInto(c, d, as, bs, s)
		}},
		{"lu", a, func(c *Comm, s *BlockStore) error { return LU(c, d, s) }},
		{"cholesky", spd, func(c *Comm, s *BlockStore) error { return Cholesky(c, d, s) }},
		{"qr", a, func(c *Comm, s *BlockStore) error {
			_, err := QR(c, d, s)
			return err
		}},
	} {
		var done, again *matrix.Dense
		var taus, tausAgain [][]float64
		_, err := RunOpts(4, Options{}, func(c *Comm) error {
			s, err := Scatter(c, d, pick(c.Rank() == 0, kern.work), r)
			if err != nil {
				return err
			}
			if err := kern.run(c, s); err != nil {
				return err
			}
			if s.Step != nb {
				return fmt.Errorf("rank %d: Step %d after the kernel, want %d", c.Rank(), s.Step, nb)
			}
			// The ranks run the kernel again right after this gather: the
			// packs are their copies, and a finished store is not written.
			g, err := Gather(c, d, s)
			if err != nil {
				return err
			}
			ts := slices.Clone(s.Taus)
			if err := kern.run(c, s); err != nil {
				return err
			}
			g2, err := Gather(c, d, s)
			if c.Rank() == 0 {
				done, again, taus, tausAgain = g, g2, ts, s.Taus
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", kern.name, err)
		}
		if !again.Equal(done) || !slices.EqualFunc(tausAgain, taus, slices.Equal[[]float64]) {
			t.Fatalf("%s: a second run on a finished store changed it", kern.name)
		}
	}
}
