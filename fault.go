package hetgrid

import (
	"fmt"
	"time"

	"hetgrid/internal/adapt"
	"hetgrid/internal/engine"
	"hetgrid/internal/run"
)

// CrashPoint schedules the death of one rank at the start of a kernel
// step. Silent crashes die without aborting the world, exercising the
// failure detector; the default fail-stop crash aborts immediately.
type CrashPoint = engine.CrashPoint

// SlowdownPoint schedules a compute-time multiplier on one rank from the
// start of a kernel step onward — the deterministic model of a noisy
// neighbor. The rank's compute sections take Factor× their natural time
// (visible to the busy-time gauges and the drift detector) while every
// numerical result stays untouched. A later-scheduled point for the same
// rank replaces the factor; Factor 1 schedules a recovery to full speed.
// Like crashes, ranks are numbered within the world the point fires in.
type SlowdownPoint = engine.SlowdownPoint

// FaultOptions schedules faults on a distributed execution — rank crashes
// (fail-stop or silent) and slowdowns — and optionally the recovery path
// that replans the surviving processors and resumes from the last
// checkpoint.
//
// Determinism contract: a crash or slowdown point fires when its rank
// enters the scheduled kernel step, so the injected fault set does not
// depend on goroutine scheduling. Faults never perturb the arithmetic: a
// run that completes (directly or through recovery) returns results
// bit-identical to the fault-free execution.
type FaultOptions struct {
	// Crashes schedules rank deaths at kernel steps.
	Crashes []CrashPoint
	// Slowdowns schedules compute-time multipliers at kernel steps — the
	// injected load drift WithDriftRebalance reacts to. Slowdowns never
	// change results, only measured busy time.
	Slowdowns []SlowdownPoint
	// RecvTimeout bounds every receive: a peer that delivers nothing within
	// it is declared dead, which is how a silent crash is detected. 0
	// selects the 1.5 s default.
	RecvTimeout time.Duration
	// Recover enables the recovery path: on a rank failure the surviving
	// processors are replanned (see PlanSurvivors) and the kernel resumes
	// from the last checkpoint, still returning bit-identical results.
	// Without it a rank failure surfaces as the *RankFailure error.
	Recover bool
	// CheckpointEvery takes a checkpoint every so many kernel steps; 0
	// selects every step. A checkpoint gathers to rank 0 only the blocks
	// the kernel can have changed since the previous one (the whole matrix
	// for the multiplication, the trailing submatrix for the
	// factorizations) and patches them into the run's one snapshot. Larger
	// values checkpoint less traffic but replay more steps after a failure.
	CheckpointEvery int
	// MaxRecoveries bounds the recovery attempts; 0 selects the default (3).
	MaxRecoveries int
	// Times optionally gives the per-rank cycle-times (flat rank order) the
	// replanner should balance the survivors by; nil assumes equal speeds.
	Times []float64
}

// RankFailure is the error a distributed execution returns when a rank
// dies and recovery is disabled (or exhausted): either the scheduled crash
// itself, or — for silent crashes — the peer's failure detector verdict.
type RankFailure = engine.RankFailure

const (
	defaultRecvTimeout   = 1500 * time.Millisecond
	defaultMaxRecoveries = 3
)

// orDefault is the zero-selects-the-default rule of the option structs.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// apply maps the options onto the supervisor's configuration (slowdowns,
// failure detector, checkpoint period) and initial state (crash schedule,
// planned cycle-times, recovery budget).
func (f *FaultOptions) apply(s *run.State, o *run.Options) error {
	if p, q := s.Dist.Dims(); f.Times != nil && len(f.Times) != p*q {
		return fmt.Errorf("hetgrid: %d fault cycle-times for a %d×%d grid", len(f.Times), p, q)
	}
	o.Engine.RecvTimeout = orDefault(f.RecvTimeout, defaultRecvTimeout)
	o.Engine.Faults = &engine.FaultConfig{Slowdowns: f.Slowdowns}
	s.Crashes, s.Times = f.Crashes, f.Times
	if f.Recover {
		o.CheckpointEvery = orDefault(f.CheckpointEvery, 1)
		s.Recoveries = orDefault(f.MaxRecoveries, defaultMaxRecoveries)
	}
	return nil
}

// FaultStats reports what the fault layer did during a distributed
// execution. The surrounding ExecStats' traffic counters cover only the
// final (successful) attempt; FaultStats aggregates across all attempts.
type FaultStats = run.FaultStats

// PlanSurvivors replans a kernel's block distribution onto the processors
// that outlived a rank failure: it picks a fresh grid shape for the
// survivors' cycle-times (subset grids allowed, so any survivor count
// works), balances the shares, and builds a distribution of the unchanged
// nbr×nbc block matrix under the kernel's panel orderings. The recovery
// path uses it internally; it is exported so applications driving their
// own worlds can recover the same way.
func PlanSurvivors(times []float64, nbr, nbc int, k Kernel) (Distribution, *GridChoice, error) {
	if k == "" {
		// The pipeline reads the empty kernel as matmul; the facade does not.
		return nil, nil, fmt.Errorf("hetgrid: unknown kernel %q", k)
	}
	plan, err := adapt.ReplanSurvivors(times, nbr, nbc, k)
	if err != nil {
		return nil, nil, err
	}
	return plan.Dist, &GridChoice{
		P:          plan.P,
		Q:          plan.Q,
		Selected:   plan.Selected,
		Candidates: plan.Shape.Candidates,
	}, nil
}
