// Package run supervises a distributed execution after it has started.
// Surviving a dead rank and rebalancing under load drift are one move made
// for two reasons: stop at a step boundary, re-run the paper's solver on new
// cycle-times, re-scatter, resume. The package holds that move once, as
// three things: State (what the next attempt needs), Attempt (one world:
// restore or scatter → kernel from step k → gather, with the checkpoint and
// drift hooks) and State.Next (the pure transition between attempts). Run
// is the loop over them; the facade, gridsim's multi-process mode and the
// TCP suites all execute through it, so nothing outside the package knows
// a checkpoint tag, the migration barrier, the commit rule or how
// survivors are replanned.
package run

import (
	"errors"
	"fmt"

	"hetgrid/internal/engine"
)

// Factory builds the fabric of one attempt for the attempt's rank count.
// A nil Factory selects the in-process mailboxes.
type Factory func(ranks int) (engine.Transport, error)

// OneShot is the factory of a fixed fabric instance: it serves one world,
// and a second attempt (recovery, migration) is refused.
func OneShot(t engine.Transport) Factory {
	used := false
	return func(int) (engine.Transport, error) {
		if used {
			return nil, fmt.Errorf("a fixed transport serves exactly one world: recovery and migration need a fresh fabric per attempt")
		}
		used = true
		return t, nil
	}
}

// FaultStats reports what the fault layer did during a run, aggregated
// across all attempts.
type FaultStats struct {
	// Attempts is the number of worlds spawned (1 plus Recoveries plus the
	// drift migrations).
	Attempts int
	// Recoveries is how many rank failures were recovered from.
	Recoveries int
	// Crashes is how many scheduled crash points fired.
	Crashes int
	// Slowdowns is how many scheduled slowdown points activated.
	Slowdowns int
	// Timeouts counts receive deadlines that expired: each is a rank
	// declaring its peer dead.
	Timeouts int
	// Checkpoints is how many periodic checkpoints were committed at
	// rank 0.
	Checkpoints int
	// ResumedSteps is the total number of kernel steps skipped by resuming
	// from checkpoints instead of restarting from scratch.
	ResumedSteps int
}

// DriftStats reports what the drift-rebalancing loop did during a run,
// aggregated across all attempts.
type DriftStats struct {
	// Windows is how many observation windows the detector folded in.
	Windows int
	// Evaluations is how many times sustained drift armed a full
	// migration-cost evaluation.
	Evaluations int
	// Migrations is how many mid-run redistributions were executed.
	Migrations int
	// MovedBlocks totals the blocks whose owner changed across migrations.
	MovedBlocks int
	// PredictedSaving sums the model's projected stay-cost minus move-cost
	// over the accepted migrations (model time units).
	PredictedSaving float64
}

// Result is what Run returns: the final attempt's outcome (the gathered
// output, the world with its traffic and span counters) and the statistics
// across attempts. A coordinator driving Attempt and Next itself keeps the
// same books with Fold and Advance on a zero Result.
type Result struct {
	Outcome
	Faults FaultStats
	Drift  DriftStats
}

// ErrPartial is Run's error when an attempt on a fabric hosting only part
// of the world ends in a failure or a migration verdict (which it wraps).
// Looping needs the whole world in one process — a process that holds no
// checkpoint cannot know where the others resume — so the Result's Outcome
// goes back to the caller, whose coordinator feeds it to Next.
var ErrPartial = errors.New("run: one attempt per partial fabric")

// Run executes the job to completion: attempt, and while attempts end in a
// rank failure or a migration verdict, take the transition and attempt
// again on a fresh fabric.
func Run(s State, job Job, fabric Factory, opts Options) (*Result, error) {
	res := &Result{}
	for {
		p, q := s.Dist.Dims()
		var t engine.Transport
		if fabric != nil {
			var err error
			if t, err = fabric(p * q); err != nil {
				if res.Err != nil {
					return nil, fmt.Errorf("run: %w (after: %w)", err, res.Err)
				}
				return nil, fmt.Errorf("run: transport factory: %w", err)
			}
		}
		res.Outcome = Attempt(s, job, t, opts)
		res.Fold(res.Outcome)
		if res.Err == nil {
			return res, nil
		}
		if lr, ok := t.(interface{ LocalRanks() []int }); ok && len(lr.LocalRanks()) < p*q {
			return res, fmt.Errorf("%w: %w", ErrPartial, res.Err)
		}
		next, err := s.Next(res.Outcome)
		if err != nil {
			return nil, err
		}
		res.Advance(res.Outcome, next)
		s = next
	}
}

// Fold adds one attempt's counters to the statistics.
func (r *Result) Fold(o Outcome) {
	if w := o.World; w != nil {
		f := &r.Faults
		f.Attempts++
		f.Timeouts += w.Timeouts()
		if fc := w.FaultCounters(); fc != nil {
			f.Crashes += len(fc.Crashed)
			f.Slowdowns += len(fc.Slowed)
		}
		f.Checkpoints += o.Checkpoints
	}
	r.Drift.Windows += o.Windows
	r.Drift.Evaluations += o.Evaluations
}

// Advance counts the transition s.Next(o) = next: a migration commits here
// (a verdict a failure voided never reaches Next), a recovery skips the
// steps before next's checkpoint.
func (r *Result) Advance(o Outcome, next State) {
	if errors.Is(o.Err, ErrMigrate) {
		r.Drift.Migrations++
		r.Drift.MovedBlocks += o.Migrate.Moved
		r.Drift.PredictedSaving += o.Migrate.Saving
	} else {
		r.Faults.Recoveries++
		r.Faults.ResumedSteps += next.StartK()
	}
}
