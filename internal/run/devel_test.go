package run

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

//
// This file compares implementations of the checkpoint commit side by side;
// Attempt ships the winner, the others live here only.
//
//	go test ./internal/run -run '^$' -bench DevelCommit -benchmem
//

// commitFn brings rank 0's snapshot of store up to date under tag, given
// the kernel's region and the step of the previous commit (the blocks that
// can have changed), and returns the snapshot.
type commitFn func(c *engine.Comm, d distribution.Distribution, store *engine.BlockStore, tag string, snap *matrix.Dense, region distribution.Region, from int) *matrix.Dense

// fullGather is the commit this package had before: every block into a new
// matrix, every time.
func fullGather(c *engine.Comm, d distribution.Distribution, store *engine.BlockStore, tag string, _ *matrix.Dense, _ distribution.Region, _ int) *matrix.Dense {
	var full *matrix.Dense
	if c.Rank() == 0 {
		nbr, nbc := d.Blocks()
		full = matrix.New(nbr*store.R, nbc*store.R)
	}
	return deltaInPlace(c, d, store, tag, full, distribution.All, 0)
}

// deltaFresh gathers the changed blocks into a copy of the previous
// snapshot, which stays immutable.
func deltaFresh(c *engine.Comm, d distribution.Distribution, store *engine.BlockStore, tag string, snap *matrix.Dense, region distribution.Region, from int) *matrix.Dense {
	if c.Rank() == 0 {
		snap = snap.Clone()
	}
	return deltaInPlace(c, d, store, tag, snap, region, from)
}

// deltaInPlace is what Attempt's commit does on a snapshot it owns: one
// GatherInto of the changed blocks, each owner's packed by block row.
func deltaInPlace(c *engine.Comm, d distribution.Distribution, store *engine.BlockStore, tag string, snap *matrix.Dense, region distribution.Region, from int) *matrix.Dense {
	if err := engine.GatherInto(c, d, store, tag, snap, region, from); err != nil {
		panic(err)
	}
	return snap
}

// barrier holds every rank until all have arrived.
func barrier(c *engine.Comm, tag string) {
	c.Send(0, tag+"/in", scalar(0))
	if c.Rank() == 0 {
		for n := 0; n < c.N(); n++ {
			c.Recv(n, tag+"/in")
		}
		for n := 0; n < c.N(); n++ {
			c.Send(n, tag+"/out", scalar(0))
		}
	}
	c.Recv(0, tag+"/out")
}

var commitSink *matrix.Dense

// BenchmarkDevelCommit times the commits of one LU run at lu-recover's size
// (N=1024, r=32, four ranks) with the kernel taken out: one operation is
// every commit of a run that checkpoints `every` steps, starting from a
// snapshot of step 0 as a resumed attempt does. B/op is the point: the
// gather allocates its packs, and only the first two alternatives allocate
// a matrix per commit on top. The per-block and per-owner deltas are
// BenchmarkDevelCollectives in internal/engine.
func BenchmarkDevelCommit(b *testing.B) {
	const nb, r = 32, 32
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random(nb*r, nb*r, rand.New(rand.NewSource(16)))
	region := plan.LU.Region()
	alts := []struct {
		name   string
		commit commitFn
	}{
		{"full-gather", fullGather},
		{"delta-fresh-buffer", deltaFresh},
		{"delta-in-place", deltaInPlace},
	}
	for _, every := range []int{4, 1} {
		for _, alt := range alts {
			b.Run(fmt.Sprintf("every=%d/%s", every, alt.name), func(b *testing.B) {
				b.ReportAllocs()
				_, err := engine.RunOpts(4, engine.Options{}, func(c *engine.Comm) error {
					var in, base *matrix.Dense
					if c.Rank() == 0 {
						in, base = a, a.Clone()
					}
					store, err := engine.Scatter(c, d, in, r)
					if err != nil {
						return err
					}
					// Start the clock once every rank holds its blocks.
					barrier(c, "scattered")
					if c.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						snap, last := base, 0
						for k := every; k < nb; k += every {
							tag := fmt.Sprintf("c/%d/%d", i, k)
							snap = alt.commit(c, d, store, tag, snap, region, last)
							last = k
							// The kernel's data dependencies keep the ranks
							// within a step or so of each other; without it
							// the senders would queue every commit of the
							// benchmark ahead of rank 0.
							barrier(c, tag)
						}
						if c.Rank() == 0 {
							commitSink = snap
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestDevelCommitAlternativesAgree keeps the bench honest: the two delta
// alternatives build the same snapshot from the same stale one.
func TestDevelCommitAlternativesAgree(t *testing.T) {
	const nb, r = 5, 2
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	a, stale := matrix.Random(nb*r, nb*r, rng), matrix.Random(nb*r, nb*r, rng)
	var snaps []*matrix.Dense
	for _, commit := range []commitFn{deltaInPlace, deltaFresh} {
		_, err := engine.RunOpts(4, engine.Options{}, func(c *engine.Comm) error {
			var in, base *matrix.Dense
			if c.Rank() == 0 {
				in, base = a, stale.Clone()
			}
			store, err := engine.Scatter(c, d, in, r)
			if err != nil {
				return err
			}
			if snap := commit(c, d, store, "c", base, plan.LU.Region(), 2); c.Rank() == 0 {
				snaps = append(snaps, snap)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, snap := range snaps[1:] {
		if !snap.Equal(snaps[0]) {
			t.Fatalf("alternative %d builds a different snapshot", i+1)
		}
	}
	if snaps[0].Equal(a) || snaps[0].Equal(stale) {
		t.Fatal("the delta selected everything or nothing")
	}
}
