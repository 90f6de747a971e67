package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

var faultBroadcastKinds = []struct {
	name string
	kind sim.BroadcastKind
}{
	{"flat", sim.StarBroadcast},
	{"ring", sim.RingBroadcast},
	{"segring", sim.SegmentedRingBroadcast},
	{"tree", sim.TreeBroadcast},
}

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

func TestScheduledCrashAbortsCleanly(t *testing.T) {
	// A fail-stop crash mid-LU must surface as *RankFailure naming the
	// scheduled victim and step — under every broadcast kind.
	d := faultTestDist(t, 6)
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(1)))
	for _, bc := range faultBroadcastKinds {
		t.Run(bc.name, func(t *testing.T) {
			_, _, err := runLU(t, d, a, 2, Options{
				Broadcast: bc.kind,
				Faults:    &FaultConfig{Crashes: []CrashPoint{{Rank: 2, Step: 3}}},
			})
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("want *RankFailure, got %v", err)
			}
			if rf.Rank != 2 || rf.Step != 3 || rf.Detected {
				t.Fatalf("wrong failure report: %+v", rf)
			}
		})
	}
}

func TestSilentCrashDetectedByTimeout(t *testing.T) {
	// A silent crash tells nobody; the Recv deadline must declare the rank
	// dead and abort instead of hanging — under every broadcast kind.
	d := faultTestDist(t, 6)
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(2)))
	for _, bc := range faultBroadcastKinds {
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

// gatherAs collects s at rank 0 under tag (nil elsewhere).
func gatherAs(c *Comm, d distribution.Distribution, s *BlockStore, tag string) (*matrix.Dense, error) {
	var m *matrix.Dense
	if c.Rank() == 0 {
		nbr, nbc := d.Blocks()
		m = matrix.New(nbr*s.R, nbc*s.R)
	}
	return m, GatherInto(c, d, s, tag, m, nil)
}

// TestResumeKernelsBitIdentical is the property the recovery driver builds
// on, for every kernel: a store restored from a checkpoint of the first k
// steps, with its Step set to k (and, for QR, the taus of those steps at
// rank 0), finishes bit-identical to the run that never stopped. Every
// kernel leaves the store at Step NB, and running it again on such a store
// changes no block. Under every broadcast kind: the checkpoint's step is
// entered drained however the panels travel.
func TestResumeKernelsBitIdentical(t *testing.T) {
	const nb, r = 6, 3
	rng := rand.New(rand.NewSource(6))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	qr := func(c *Comm, d distribution.Distribution, s *BlockStore) error {
		_, err := QR(c, d, s)
		return err
	}
	for _, kern := range []struct {
		name string
		work *matrix.Dense // the working matrix before step 0
		run  func(c *Comm, d distribution.Distribution, s *BlockStore) error
	}{
		{"mm", matrix.New(nb*r, nb*r), func(c *Comm, d distribution.Distribution, s *BlockStore) error {
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
		{"lu", a, LU},
		{"cholesky", spd, Cholesky},
		{"qr", a, qr},
	} {
		for _, d := range engineDistributions(t, nb)[:2] { // uniform, het-panel
			var replayTaus [][]float64
			if kern.name == "qr" {
				rep, err := kernels.ReplayQRNumerics(d, a, matrix.Strict)
				if err != nil {
					t.Fatal(err)
				}
				replayTaus = rep.Taus
			}
			for _, bk := range allBroadcastKinds {
				opts := Options{Broadcast: bk.kind}
				for _, k := range []int{1, nb / 2, nb - 1} {
					name := fmt.Sprintf("%s/%s/%s/k=%d", kern.name, d.Name(), bk.name, k)

					// The run that never stops, checkpointing as it enters step k.
					var clean, ckpt *matrix.Dense
					var ckptTaus [][]float64
					_, err := RunOpts(4, opts, func(c *Comm) error {
						s, err := Scatter(c, d, pick(c.Rank() == 0, kern.work), r)
						if err != nil {
							return err
						}
						c.SetStepHook(func(step int) bool { return step == k }, func(int) error {
							g, err := gatherAs(c, d, s, "ckpt")
							if c.Rank() == 0 {
								ckpt = g
								if s.Taus != nil {
									ckptTaus = slices.Clone(s.Taus[:k])
								}
							}
							return err
						})
						if err := kern.run(c, d, s); err != nil {
							return err
						}
						g, err := gatherAs(c, d, s, "clean")
						if c.Rank() == 0 {
							clean = g
						}
						return err
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}

					// The resumed run, then the same kernel once more on its
					// finished store.
					var resumed, again *matrix.Dense
					var taus, tausAgain [][]float64
					_, err = RunOpts(4, opts, func(c *Comm) error {
						s, err := Scatter(c, d, pick(c.Rank() == 0, ckpt), r)
						if err != nil {
							return err
						}
						s.Step = k
						if c.Rank() == 0 {
							s.Taus = slices.Clone(ckptTaus)
						}
						if err := kern.run(c, d, s); err != nil {
							return err
						}
						if s.Step != nb {
							return fmt.Errorf("rank %d: Step %d after the kernel, want %d", c.Rank(), s.Step, nb)
						}
						g, err := gatherAs(c, d, s, "resumed")
						if err != nil {
							return err
						}
						ts := slices.Clone(s.Taus)
						if err := kern.run(c, d, s); err != nil {
							return err
						}
						g2, err := gatherAs(c, d, s, "again")
						if c.Rank() == 0 {
							resumed, again, taus, tausAgain = g, g2, ts, s.Taus
						}
						return err
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !resumed.Equal(clean) {
						t.Fatalf("%s: resumed result differs from the uninterrupted run", name)
					}
					if !again.Equal(resumed) {
						t.Fatalf("%s: a second run on a finished store changed blocks", name)
					}
					if kern.name == "cholesky" {
						for i := 0; i < nb*r; i++ {
							for j := i + 1; j < nb*r; j++ {
								if resumed.At(i, j) != 0 {
									t.Fatalf("%s: upper entry (%d,%d) = %v after resume", name, i, j, resumed.At(i, j))
								}
							}
						}
					}
					if kern.name == "qr" && (!slices.EqualFunc(taus, replayTaus, slices.Equal[[]float64]) || !slices.EqualFunc(tausAgain, replayTaus, slices.Equal[[]float64])) {
						t.Fatalf("%s: resumed taus %v, replay %v", name, taus, replayTaus)
					}
				}
			}
		}
	}
}
