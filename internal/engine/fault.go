package engine

import (
	"fmt"
	"sync"

	"hetgrid/internal/obs"
)

// This file is the engine's fault layer: a schedule of rank crashes and
// slowdowns that fires as ranks enter kernel steps, plus the error type the
// run loop reports when a rank dies. The fabric is never touched — a real
// fabric loses a peer, not a message. A fail-stop crash aborts the world at
// once; a silent one leaves its peers blocked until the Recv deadline in
// engine.go declares the rank dead. Either way the driver layer learns
// enough to replan the surviving work.
//
// Determinism contract: a crash or slowdown point fires when its rank
// enters the scheduled kernel step, so which points fire does not depend on
// goroutine scheduling, and no delivered payload — hence no numerical
// result — ever changes.

// CrashPoint schedules the death of one rank at the start of a kernel step.
type CrashPoint struct {
	// Rank is the flat rank that dies (numbered within the world it fires
	// in — after a recovery the surviving world is renumbered).
	Rank int
	// Step is the kernel panel index at whose start the rank dies.
	Step int
	// Silent makes the rank die without aborting the world: its peers stay
	// blocked in Recv until the failure detector (the Recv deadline)
	// declares the rank dead and aborts. The default fail-stop crash aborts
	// the world immediately.
	Silent bool
}

// SlowdownPoint schedules a cycle-time multiplier on one rank from the
// start of a kernel step onward — the deterministic model of a noisy
// neighbor stealing cycles. The rank's labeled compute sections take
// Factor× their natural time (the engine spins out the difference), so the
// span store's busy-time gauges see the slowdown while every delivered
// payload, and therefore the numerical result, stays untouched.
type SlowdownPoint struct {
	// Rank is the flat rank that slows down.
	Rank int
	// Step is the kernel panel index at whose start the multiplier takes
	// effect; it stays in force until a later-scheduled point for the same
	// rank replaces it (Factor 1 schedules a recovery back to full speed).
	Step int
	// Factor ≥ 1 multiplies the rank's compute time.
	Factor float64
}

// FaultConfig schedules the faults of one Run.
type FaultConfig struct {
	// Crashes schedules rank deaths at kernel steps.
	Crashes []CrashPoint
	// Slowdowns schedules compute-time multipliers at kernel steps — load
	// drift, injected as deterministically as the crashes.
	Slowdowns []SlowdownPoint
}

// FaultCounters is a snapshot of a world's fault activity.
type FaultCounters struct {
	// Crashed lists the crash points that fired, in firing order.
	Crashed []CrashPoint
	// Slowed lists the slowdown points that activated, in firing order.
	Slowed []SlowdownPoint
}

// RankFailure is the error RunOpts reports when a rank dies — either a
// scheduled crash fault, a peer the failure detector timed out on, or a
// remote process's abort naming the failing rank.
type RankFailure struct {
	// Rank is the dead rank.
	Rank int
	// Step is the kernel step the crash was scheduled at, or -1 when the
	// failure was inferred by a peer's Recv timeout.
	Step int
	// Detected is true when a peer's failure detector reported the death
	// (as opposed to the dying rank reporting it itself).
	Detected bool
}

func (e *RankFailure) Error() string {
	if e.Detected {
		return fmt.Sprintf("engine: rank %d declared dead by the failure detector (receive timeout)", e.Rank)
	}
	return fmt.Sprintf("engine: rank %d crashed at step %d", e.Rank, e.Step)
}

// rankCrash is the panic payload a scheduled crash kills its rank with.
type rankCrash struct{ point CrashPoint }

// peerDead is the panic payload a receiver raises when its Recv deadline
// expires on a peer or a remote abort names a failing rank.
type peerDead struct{ rank int }

// faultSchedule is one world's fault state: which points have fired and
// the slowdown factor in force on each rank.
type faultSchedule struct {
	cfg FaultConfig

	mu        sync.Mutex
	fired     map[int]bool // indices into cfg.Crashes
	crashed   []CrashPoint
	firedSlow map[int]bool // indices into cfg.Slowdowns
	slowed    []SlowdownPoint
	slow      map[int]float64 // rank → active compute-time multiplier

	// Registry mirrors of the fault counters; nil (counting nothing) without
	// a registry.
	mCrashes, mSlowdowns *obs.Counter
}

// newFaultSchedule arms cfg for one world, mirroring its activity into reg.
func newFaultSchedule(cfg FaultConfig, reg *obs.Registry) *faultSchedule {
	return &faultSchedule{
		cfg:        cfg,
		fired:      make(map[int]bool),
		firedSlow:  make(map[int]bool),
		slow:       make(map[int]float64),
		mCrashes:   reg.Counter("hetgrid_fault_crashes_total", "", "scheduled rank crash points that fired"),
		mSlowdowns: reg.Counter("hetgrid_fault_slowdowns_total", "", "scheduled rank slowdown points that activated"),
	}
}

// stepEntered activates any slowdowns scheduled at or before this step for
// this rank (the latest-scheduled point wins), then fires any crash
// scheduled for this rank at this step by panicking on the rank's
// goroutine; the run loop converts the panic into a RankFailure.
func (f *faultSchedule) stepEntered(rank, step int) {
	f.mu.Lock()
	best := -1
	for i, sp := range f.cfg.Slowdowns {
		if sp.Rank != rank || sp.Step > step || sp.Factor <= 0 {
			continue
		}
		if best < 0 || sp.Step >= f.cfg.Slowdowns[best].Step {
			best = i
		}
	}
	if best >= 0 {
		f.slow[rank] = f.cfg.Slowdowns[best].Factor
		if !f.firedSlow[best] {
			f.firedSlow[best] = true
			f.slowed = append(f.slowed, f.cfg.Slowdowns[best])
			f.mSlowdowns.Inc()
		}
	}
	for i, cp := range f.cfg.Crashes {
		if cp.Rank == rank && cp.Step == step && !f.fired[i] {
			f.fired[i] = true
			f.crashed = append(f.crashed, cp)
			f.mCrashes.Inc()
			f.mu.Unlock()
			panic(&rankCrash{point: cp})
		}
	}
	f.mu.Unlock()
}

// slowFactor returns the rank's active compute-time multiplier (1 when no
// slowdown is in force).
func (f *faultSchedule) slowFactor(rank int) float64 {
	if len(f.cfg.Slowdowns) == 0 {
		return 1
	}
	f.mu.Lock()
	s := f.slow[rank]
	f.mu.Unlock()
	if s < 1 {
		return 1
	}
	return s
}

// counters snapshots the schedule's activity.
func (f *faultSchedule) counters() FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultCounters{
		Crashed: append([]CrashPoint(nil), f.crashed...),
		Slowed:  append([]SlowdownPoint(nil), f.slowed...),
	}
}

// remainingCrashes returns the scheduled crash points that have not fired —
// what a recovery driver should carry into the next attempt.
func (f *faultSchedule) remainingCrashes() []CrashPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []CrashPoint
	for i, cp := range f.cfg.Crashes {
		if !f.fired[i] {
			out = append(out, cp)
		}
	}
	return out
}
