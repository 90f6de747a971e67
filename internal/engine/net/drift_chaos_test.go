package net_test

// Chaos over real sockets, through the run supervisor itself: the drift
// protocol (busy gauges → rank 0's detector → verdict → checkpoint → done
// barrier) migrates an LU mid-run across a loopback-TCP cluster, composed
// with a deterministic slowdown and a fail-stop crash with survivor
// replanning — and the final result is bit-identical
// to the fault-free serial replay.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
	"hetgrid/internal/run"
	"hetgrid/internal/sim"
)

// TestTCPDriftChaosMigrateCrashResume runs three cluster attempts over
// loopback TCP, every process executing run.Attempt and the coordinator
// (process 0, which hosts rank 0) taking the transitions with State.Next:
//
//  1. LU on a uniform 2×2 layout with an 8× slowdown on rank 3; the
//     detector at rank 0 sees the drift at a window boundary k and every
//     process's attempt ends in ErrMigrate.
//  2. Resume from the migration checkpoint on the layout replanned for the
//     estimated cycle-times; rank 2 crashes fail-stop at step 5. It lives on
//     process 1, so the coordinator's world never sees the crash point fire
//     and Next has to strike it. The protocol has no commit barrier for
//     periodic checkpoints, so whether a newer one than the migration's
//     lands before the abort is a race — the state keeps the newest either
//     way.
//  3. The three survivors are replanned and finish the factorization.
//
// The final matrix must equal the fault-free serial replay bit for bit.
func TestTCPDriftChaosMigrateCrashResume(t *testing.T) {
	const nb, procs, r = 8, 2, 4
	d1, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(17)))
	oracle, err := kernels.ReplayLUNumerics(d1, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	job := run.Job{BlockSize: r, Inputs: []*matrix.Dense{a}}
	opts := run.Options{
		Engine: engine.Options{
			Record:      true,
			RecvTimeout: 1950 * time.Millisecond,
			Faults: &engine.FaultConfig{
				Slowdowns: []engine.SlowdownPoint{{Rank: 3, Step: 0, Factor: 8}},
			},
		},
		CheckpointEvery: 1,
		// An eager detector and a near-free network model: the 8× slowdown
		// migrates at the first window it shows in.
		Drift: &run.Drift{
			Detector: adapt.DriftPolicy{Window: 2, Alpha: 1, Threshold: 0.5, Patience: 1, Hysteresis: 1.01, MaxMigrations: 1},
			Eval:     adapt.Policy{Net: sim.Config{Latency: 1e-12, ByteTime: 1e-15}, BlockBytes: 8192, Hysteresis: 1.01},
		},
	}
	crash := engine.CrashPoint{Rank: 2, Step: 5}
	s1 := run.State{
		Kernel: plan.LU, Dist: d1, Times: ones(4),
		Crashes: []engine.CrashPoint{crash}, Recoveries: 1, Migrations: 1,
	}
	var stats run.Result

	// Attempt 1: chaos up to the migration verdict.
	outs := attemptCluster(t, procs, s1, job, opts)
	slowdowns := 0
	for p, o := range outs {
		if !errors.Is(o.Err, run.ErrMigrate) {
			t.Fatalf("process %d: want the migration verdict, got %v", p, o.Err)
		}
		slowdowns += len(o.World.FaultCounters().Slowed)
	}
	if outs[0].Migrate == nil || outs[0].Ckpt == nil {
		t.Fatal("migration checkpoint never committed")
	}
	if outs[1].Migrate != nil {
		t.Fatal("a process without rank 0 claims the migration decision")
	}
	if slowdowns == 0 {
		t.Fatal("slowdown point never activated")
	}
	stats.Fold(outs[0])
	s2, err := s1.Next(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats.Advance(outs[0], s2)
	migrateK := s2.StartK()
	if s2.Migrations != 0 || len(s2.Crashes) != 1 || s2.Crashes[0] != crash || migrateK < 2 {
		t.Fatalf("bad migrate transition: %+v", s2)
	}

	// Attempt 2: resume mid-factorization on the migrated layout (same four
	// ranks); rank 2 crashes entering step 5. Rank 0 gathers, so its process
	// cannot finish without the dead rank's blocks.
	outs2 := attemptCluster(t, procs, s2, job, opts)
	crashes := 0
	for p, o := range outs2 {
		var rf *engine.RankFailure
		if !errors.As(o.Err, &rf) {
			t.Fatalf("resume attempt, process %d: want *RankFailure, got %v", p, o.Err)
		}
		if rf.Rank != 2 {
			t.Fatalf("resume attempt, process %d blames rank %d, want 2", p, rf.Rank)
		}
		crashes += len(o.World.FaultCounters().Crashed)
	}
	if crashes != 1 || len(outs2[0].Remaining) != 1 {
		t.Fatalf("%d crash points fired, process 0 still lists %v", crashes, outs2[0].Remaining)
	}
	stats.Fold(outs2[0])
	s3, err := s2.Next(outs2[0])
	if err != nil {
		t.Fatal(err)
	}
	stats.Advance(outs2[0], s3)
	if s3.Ckpt == nil || s3.StartK() < migrateK {
		t.Fatalf("no checkpoint carried past the crash: resume step %d, migration at %d", s3.StartK(), migrateK)
	}
	if s3.Recoveries != 0 || len(s3.Crashes) != 0 || len(s3.Times) != 3 {
		t.Fatalf("bad failure transition: %+v", s3)
	}

	// Attempt 3: the three survivors finish clean.
	outs3 := attemptCluster(t, procs, s3, job, opts)
	for p, o := range outs3 {
		if o.Err != nil {
			t.Fatalf("final attempt, process %d: %v", p, o.Err)
		}
	}
	if outs3[0].Out == nil || !outs3[0].Out.Equal(oracle.C) {
		t.Fatal("drift-migrate → crash → replan → resume over TCP is not bit-identical to the fault-free factorization")
	}
	stats.Fold(outs3[0])

	// The coordinator's books: every attempt accounted for, the migration
	// counted at its commit, the recovery at its resume point.
	f, ds := stats.Faults, stats.Drift
	if f.Attempts != 3 || f.Attempts != 1+ds.Migrations+f.Recoveries {
		t.Fatalf("attempts not accounted for: faults=%+v drift=%+v", f, ds)
	}
	if ds.Migrations != 1 || ds.Windows == 0 || ds.Evaluations == 0 || ds.MovedBlocks == 0 || ds.PredictedSaving <= 0 {
		t.Fatalf("implausible drift statistics: %+v", ds)
	}
	if f.Recoveries != 1 || f.ResumedSteps != s3.StartK() || f.Checkpoints == 0 {
		t.Fatalf("implausible fault statistics: %+v", f)
	}
}
