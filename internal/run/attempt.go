package run

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

// Job is the computation's constant part: the inputs (A and B for the
// multiplication, the matrix to factor otherwise) and the element block
// size they tile with. Inputs are read where rank 0 lives; a process
// hosting other ranks passes nils.
type Job struct {
	BlockSize int
	Inputs    []*matrix.Dense
}

// Options is a run's constant configuration.
type Options struct {
	// Engine configures every world; Transport, LocalRanks and
	// Faults.Crashes are set per attempt from the fabric and the State.
	Engine engine.Options
	// CheckpointEvery commits the working matrix's changed blocks to rank
	// 0's snapshot every so many kernel steps; 0 takes no periodic
	// checkpoints.
	CheckpointEvery int
	// Drift enables the drift-observation protocol; nil runs without it.
	Drift *Drift
}

// Outcome is what one world hands back. Out, Taus, Ckpt and Migrate are
// set where rank 0 lives.
type Outcome struct {
	// Err is nil when the kernel ran to completion, wraps ErrMigrate when
	// the attempt ended in a migration verdict, is a *engine.RankFailure
	// when a rank died, and otherwise the error that aborted the world.
	Err error
	// Out and Taus are the gathered result and QR's tau scalings.
	Out  *matrix.Dense
	Taus [][]float64
	// Ckpt is the newest checkpoint committed during the attempt, nil when
	// none was (the State's is then untouched); Checkpoints counts the
	// periodic commits.
	Ckpt        *Checkpoint
	Checkpoints int
	// Migrate is the committed decision behind an ErrMigrate. A rank
	// failure in the same attempt wins the error priority and voids it.
	Migrate *Migration
	// Windows and Evaluations count the drift detector's activity.
	Windows, Evaluations int
	// Remaining are the crash points that did not fire on this process.
	Remaining []engine.CrashPoint
	// World holds the attempt's traffic, span and fault counters.
	World *engine.World
}

// Attempt runs one world over s.Dist on fabric t (nil selects the
// in-process mailboxes): restore the checkpoint (its step and taus set on
// the working store) or scatter the inputs, run the kernel from the store's
// step with the checkpoint and drift hooks installed, gather the result at
// rank 0. A fabric exposing LocalRanks() []int hosts
// only those ranks here. The attempt takes over s.Ckpt.Work: its commits
// advance that buffer in place, so after one of them it is the Outcome's
// checkpoint and no longer the State's.
func Attempt(s State, job Job, t engine.Transport, opts Options) Outcome {
	eopts := opts.Engine
	eopts.Transport = t
	if lr, ok := t.(interface{ LocalRanks() []int }); ok {
		eopts.LocalRanks = lr.LocalRanks()
	}
	if eopts.Faults != nil {
		fc := *eopts.Faults
		fc.Crashes = s.Crashes
		eopts.Faults = &fc
	}
	var w *watch
	if opts.Drift != nil {
		var err error
		if w, err = newWatch(s, opts.Drift); err != nil {
			return Outcome{Err: err}
		}
	}

	// Only rank 0's goroutine writes o (and w) while the world runs; each
	// rank writes its own slot of migrated.
	var o Outcome
	d, r, startK := s.Dist, job.BlockSize, s.StartK()
	p, q := d.Dims()
	migrated := make([]error, p*q)
	nbr, nbc := d.Blocks()
	world, err := engine.RunOpts(p*q, eopts, func(c *engine.Comm) error {
		// Read-only inputs (the multiplication's A and B); the
		// factorizations work in place on their single input. Scatter reads
		// the full matrix at rank 0 alone.
		var ro []*engine.BlockStore
		if s.Kernel == plan.MatMul {
			for _, m := range job.Inputs {
				st, err := engine.Scatter(c, d, m, r)
				if err != nil {
					return err
				}
				ro = append(ro, st)
			}
		}

		// The working store: restored from the checkpoint on resume, with
		// its step and, at rank 0, QR's taus so far; otherwise the zero
		// accumulator (MM) or the input itself.
		var work *engine.BlockStore
		var err error
		switch {
		case s.Ckpt != nil:
			if work, err = engine.Scatter(c, d, s.Ckpt.Work, r); err == nil {
				work.Step = s.Ckpt.Step
				if c.Rank() == 0 {
					work.Taus = slices.Clone(s.Ckpt.Taus)
				}
			}
		case s.Kernel == plan.MatMul:
			work = engine.ZeroStore(c, d, r)
		default:
			work, err = engine.Scatter(c, d, job.Inputs[0], r)
		}
		if err != nil {
			return err
		}

		// commit brings rank 0's snapshot of the working matrix up to step k
		// and records it there as the checkpoint. Every rank snapshots its
		// blocks at its own step-k entry (all updates of steps < k applied,
		// none of step k), so the snapshot is the exact global state after
		// step k-1. Only the blocks the kernel's region still held at the
		// last commit can differ from it, so only those travel: a delta,
		// spliced into the one snapshot once its last block has arrived (a
		// commit that loses a sender leaves the previous checkpoint whole).
		// Each owner sends its delta as packs it copies its blocks into, so
		// it goes on computing while rank 0 waits for the last pack.
		// The snapshot is the run's, not the commit's: a resumed attempt
		// advances the State's buffer in place, a fresh attempt's first
		// commit gathers every block into a new one.
		var snap *matrix.Dense
		last := -1
		if s.Ckpt != nil {
			snap, last = s.Ckpt.Work, s.Ckpt.Step
		}
		commit := func(tag string, k int) error {
			defer c.EndPhase(c.Phase("checkpoint " + strconv.Itoa(k)))
			region, from := distribution.All, 0
			if last >= 0 {
				region, from = s.Kernel.Region(), last
			}
			if c.Rank() == 0 && snap == nil {
				snap = matrix.New(nbr*r, nbc*r)
			}
			if err := engine.GatherInto(c, d, work, tag, snap, region, from); err != nil {
				return err
			}
			last = k
			if c.Rank() == 0 {
				o.Ckpt = &Checkpoint{Step: k, Work: snap}
				if s.Kernel == plan.QR {
					o.Ckpt.Taus = slices.Clone(work.Taus[:k])
				}
			}
			return nil
		}
		// Commits and drift windows run at the hook's due steps, entered drained.
		every := opts.CheckpointEvery
		ckpt := func(k int) bool { return every > 0 && k%every == 0 }
		window := func(k int) bool { return w != nil && (k-startK)%w.window == 0 }
		if every > 0 || w != nil {
			c.SetStepHook(func(k int) bool {
				return k > startK && (ckpt(k) || window(k))
			}, func(k int) error {
				if ckpt(k) {
					if err := commit(fmt.Sprintf("ckpt/%d", k), k); err != nil {
						return err
					}
					if c.Rank() == 0 {
						o.Checkpoints++
					}
				}
				if window(k) {
					return w.step(c, k, s, &o, commit)
				}
				return nil
			})
		}

		switch s.Kernel {
		case plan.MatMul:
			err = engine.MMInto(c, d, ro[0], ro[1], work)
		case plan.LU:
			err = engine.LU(c, d, work)
		case plan.Cholesky:
			err = engine.Cholesky(c, d, work)
		case plan.QR:
			_, err = engine.QR(c, d, work)
		default:
			err = fmt.Errorf("run: unknown kernel %q", s.Kernel)
		}
		if errors.Is(err, ErrMigrate) {
			// Every rank is past the migration barrier: end the world
			// cleanly, not through an abort, so a rank on another process
			// still waiting for a barrier message gets it instead of a
			// closed fabric.
			migrated[c.Rank()] = err
			return nil
		}
		if err != nil {
			return err
		}
		full, err := engine.Gather(c, d, work)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			o.Out, o.Taus = full, work.Taus
		}
		return nil
	})
	for _, m := range migrated {
		if err == nil && m != nil {
			err = m
		}
	}
	o.World, o.Err = world, err
	if world != nil {
		o.Remaining = world.RemainingCrashes()
	}
	return o
}
