package run

import (
	"errors"
	"fmt"

	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

// State is what the next attempt needs and nothing else; the rest of a run
// (inputs, options) is constant.
type State struct {
	// Kernel is the computation; it selects the active region the drift
	// loop prices and the panel orderings survivors are replanned under.
	Kernel plan.Kernel
	// Dist assigns the blocks to the p·q ranks of the next world.
	Dist distribution.Distribution
	// Times are the planned cycle-times of Dist's ranks in flat rank order:
	// the drift detector's baseline, and what survivors are replanned by.
	Times []float64
	// Ckpt is the newest committed checkpoint, nil before the first: the
	// next attempt restores it and starts at Ckpt.Step.
	Ckpt *Checkpoint
	// Crashes are the scheduled crash points that have not fired.
	Crashes []engine.CrashPoint
	// Recoveries and Migrations are the remaining budgets.
	Recoveries, Migrations int
}

// Checkpoint is a committed recovery point: rank 0's snapshot of the
// working matrix with the first Step kernel steps applied, plus, for QR,
// the tau scalings those steps produced. Work and Taus are meaningful where
// rank 0 lives; every other process needs Step alone. Work is one buffer
// per run, advanced in place from commit to commit: the Checkpoint that
// holds it last is the only one whose Step describes it.
type Checkpoint struct {
	Step int
	Work *matrix.Dense
	Taus [][]float64
}

// Migration is a drift verdict committed at rank 0: the same ranks
// replanned for the detector's estimated cycle-times.
type Migration struct {
	Dist  distribution.Distribution
	Times []float64
	// Moved is the number of blocks changing owner; Saving the model's
	// projected stay-cost minus move-cost.
	Moved  int
	Saving float64
}

// ErrMigrate is the error every rank's step hook returns once a migration
// checkpoint is committed, ending the attempt collectively.
var ErrMigrate = errors.New("run: drift migration scheduled")

// StartK is the kernel step the next attempt starts at.
func (s State) StartK() int {
	if s.Ckpt == nil {
		return 0
	}
	return s.Ckpt.Step
}

// Next is the supervisor's transition function: the state of the attempt
// that follows one that ended in o. It is pure, so a coordinator can
// compute it once and ship the result to the processes of the next world.
// Done (o.Err nil) returns s. ErrMigrate keeps the ranks and takes
// o.Migrate's layout and times from o.Ckpt, for one migration. A
// *RankFailure replans the survivors without the dead rank from the newest
// checkpoint (o.Ckpt, else s.Ckpt), for one recovery. An exhausted budget,
// a migration that never committed here (rank 0 is hosted elsewhere), a
// failure that leaves no survivor and any other error end the run with an
// error wrapping o.Err.
func (s State) Next(o Outcome) (State, error) {
	var rf *engine.RankFailure
	switch {
	case o.Err == nil:
		return s, nil

	case errors.Is(o.Err, ErrMigrate):
		if o.Migrate == nil || o.Ckpt == nil {
			return State{}, fmt.Errorf("run: no migration committed here: %w", o.Err)
		}
		if s.Migrations <= 0 {
			return State{}, fmt.Errorf("run: migration budget exhausted: %w", o.Err)
		}
		next := s
		next.Dist, next.Times = o.Migrate.Dist, o.Migrate.Times
		next.Ckpt, next.Crashes = o.Ckpt, o.Remaining
		next.Migrations--
		return next, nil

	case errors.As(o.Err, &rf):
		if s.Recoveries <= 0 {
			return State{}, fmt.Errorf("run: no recovery budget left: %w", o.Err)
		}
		if rf.Rank < 0 || rf.Rank >= len(s.Times) {
			return State{}, fmt.Errorf("run: dead rank %d outside world of %d: %w", rf.Rank, len(s.Times), o.Err)
		}
		alive := append(append([]float64(nil), s.Times[:rf.Rank]...), s.Times[rf.Rank+1:]...)
		if len(alive) == 0 {
			return State{}, fmt.Errorf("run: no survivors: %w", o.Err)
		}
		nbr, nbc := s.Dist.Blocks()
		sp, err := adapt.ReplanSurvivors(alive, nbr, nbc, s.Kernel)
		if err != nil {
			return State{}, fmt.Errorf("run: replanning after %v: %w", o.Err, err)
		}
		next := s
		next.Dist = sp.Dist
		next.Times = make([]float64, len(sp.Selected))
		for i, idx := range sp.Selected {
			next.Times[i] = alive[idx]
		}
		if o.Ckpt != nil {
			next.Ckpt = o.Ckpt
		}
		next.Crashes = strike(s.Crashes, o.Remaining, rf)
		next.Recoveries--
		return next, nil

	default:
		return State{}, o.Err
	}
}

// strike returns the crash points to carry past a failure. remaining is
// one process's view, and a process only sees the points of ranks it hosts
// fire: when the point the failure names is listed as often after the
// attempt as before it, it fired elsewhere and is struck here. A detected
// failure (Step < 0) names only the rank.
func strike(before, remaining []engine.CrashPoint, rf *engine.RankFailure) []engine.CrashPoint {
	named := func(cp engine.CrashPoint) bool {
		return cp.Rank == rf.Rank && (rf.Step < 0 || cp.Step == rf.Step)
	}
	count := func(cps []engine.CrashPoint) (n int) {
		for _, cp := range cps {
			if named(cp) {
				n++
			}
		}
		return n
	}
	if count(remaining) < count(before) {
		return remaining
	}
	for i, cp := range remaining {
		if named(cp) {
			return append(append([]engine.CrashPoint(nil), remaining[:i]...), remaining[i+1:]...)
		}
	}
	return remaining
}
