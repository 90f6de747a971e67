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

// Run executes the job to completion: attempt, and while attempts end in a
// rank failure or a migration verdict, take the transition and attempt
// again. A nil t gives every attempt a fresh in-process fabric. A caller's
// fabric, whole or partial, serves exactly one attempt: recovery and
// migration need a fresh fabric, sized to the next world, and a process
// hosting part of the world holds no checkpoint to resume the others from.
// So when the transition would need a second attempt on t, Run returns
// the Result beside an error wrapping the attempt's, and a coordinator
// driving the processes feeds its Outcome to Next itself.
func Run(s State, job Job, t engine.Transport, opts Options) (*Result, error) {
	res := &Result{}
	for {
		res.Outcome = Attempt(s, job, t, opts)
		res.Fold(res.Outcome)
		if res.Err == nil {
			return res, nil
		}
		next, err := s.Next(res.Outcome)
		if err != nil {
			return nil, err
		}
		if t != nil {
			return res, fmt.Errorf("run: a fixed transport serves exactly one world: recovery and migration need a fresh fabric per attempt: %w", res.Err)
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
