package net_test

// Recovery over real sockets: the fault machinery (crash → replan →
// resume) composes with the loopback-TCP fabric unchanged. Every run goes
// through run.Attempt, the job body the library executes, and the tests
// take their transitions with State.Next. Fault-free TCP runs and a
// fail-stop crash without recovery are cells of the facade's
// TestConformance.

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
	"hetgrid/internal/run"
)

// attemptCluster runs one run.Attempt of s on every process of a fresh
// loopback-TCP cluster (closed at test cleanup) and returns the outcomes
// indexed by process id. Each process spawns goroutines only for its own
// ranks, the fabric carries everything else; the inputs exist where rank 0
// lives (process 0) and nowhere else.
func attemptCluster(t *testing.T, procs int, s run.State, job run.Job, opts run.Options) []run.Outcome {
	t.Helper()
	p, q := s.Dist.Dims()
	fabs, _ := enginenet.StartCluster(t, p*q, procs, nil)
	return attemptOn(fabs, func(int) run.State { return s }, job, opts)
}

// attemptOn is attemptCluster on fabrics already established, with a
// per-process state.
func attemptOn(fabs []*enginenet.Fabric, stateOf func(p int) run.State, job run.Job, opts run.Options) []run.Outcome {
	outs := make([]run.Outcome, len(fabs))
	var wg sync.WaitGroup
	for p := range fabs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			j := job
			if p != 0 {
				j.Inputs = make([]*matrix.Dense, len(job.Inputs))
			}
			outs[p] = run.Attempt(stateOf(p), j, fabs[p], opts)
		}(p)
	}
	wg.Wait()
	return outs
}

// ones is the equal-speed cycle-time vector of n ranks.
func ones(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = 1
	}
	return t
}

// TestTCPCrashReplanResume composes real sockets with injected faults
// through the run supervisor itself: a rank crashes mid-LU on one process,
// every process's attempt ends in a *RankFailure naming it, the
// coordinator's Next replans the survivors and picks the resume point, the
// resume step reaches the joiners through the handshake payload of a fresh
// cluster, and the resumed factorization finishes bit-identical to the
// fault-free oracle.
func TestTCPCrashReplanResume(t *testing.T) {
	const nb, world1, procs, r = 8, 6, 3, 2
	d1, err := distribution.UniformBlockCyclic(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(7)))
	oracle, err := kernels.ReplayLUNumerics(d1, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	job := run.Job{BlockSize: r, Inputs: []*matrix.Dense{a}}
	opts := run.Options{Engine: engine.Options{Faults: &engine.FaultConfig{}}, CheckpointEvery: 1}

	// Attempt 1: rank 5 (hosted by process 2) crashes fail-stop entering
	// step 4; the last checkpoint gather that completes at rank 0 is the
	// recovery point. Checkpoints have no commit barrier, so only data
	// dependencies order a commit before the crash: rank 5 finishes step 3
	// on a panel from rank 3, whose step 2 consumed rank 0's row panel, which
	// rank 0 sent after its step-2 hook — checkpoint 2 is committed. And
	// nobody finishes without the dead rank: it owns the diagonal of step 5.
	s1 := run.State{
		Kernel: plan.LU, Dist: d1, Times: ones(world1),
		Crashes: []engine.CrashPoint{{Rank: 5, Step: 4}}, Recoveries: 1,
	}
	outs := attemptCluster(t, procs, s1, job, opts)
	for p, o := range outs {
		var rf *engine.RankFailure
		if !errors.As(o.Err, &rf) {
			t.Fatalf("process %d: want *RankFailure, got %v", p, o.Err)
		}
		if rf.Rank != 5 {
			t.Fatalf("process %d blames rank %d, want 5", p, rf.Rank)
		}
	}
	if outs[0].Ckpt == nil || outs[0].Ckpt.Step < 2 || outs[0].Checkpoints < 2 {
		t.Fatalf("checkpoint 2 not committed before the crash: %+v", outs[0].Ckpt)
	}

	// The coordinator takes the transition. Its own world never saw rank 5's
	// crash point fire (process 2 hosts it), yet the point must be struck.
	var stats run.Result
	stats.Fold(outs[0])
	s2, err := s1.Next(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats.Advance(outs[0], s2)
	if len(outs[0].Remaining) != 1 || len(s2.Crashes) != 0 {
		t.Fatalf("crash point not struck: process 0 saw %v unfired, next state carries %v", outs[0].Remaining, s2.Crashes)
	}
	if s2.Recoveries != 0 || s2.StartK() != outs[0].Ckpt.Step || len(s2.Times) != 5 {
		t.Fatalf("bad transition: %+v", s2)
	}
	p2, q2 := s2.Dist.Dims()

	// Next is pure, so every joiner replans the same survivor grid from its
	// own outcome; only the resume step needs shipping — it travels as the
	// handshake payload of the fresh cluster.
	payload, err := json.Marshal(struct {
		StartK int `json:"start_k"`
	}{s2.StartK()})
	if err != nil {
		t.Fatal(err)
	}
	fabs2, joinPayload := enginenet.StartCluster(t, p2*q2, procs, payload)
	var decoded struct {
		StartK int `json:"start_k"`
	}
	if err := json.Unmarshal(joinPayload, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.StartK != s2.StartK() {
		t.Fatalf("payload start step %d, want %d", decoded.StartK, s2.StartK())
	}
	joiner := make([]run.State, procs)
	for p := 1; p < procs; p++ {
		sj, err := s1.Next(outs[p])
		if err != nil {
			t.Fatalf("joiner %d transition: %v", p, err)
		}
		if pj, qj := sj.Dist.Dims(); pj != p2 || qj != q2 {
			t.Fatalf("joiner %d replanned a %d×%d grid, coordinator %d×%d", p, pj, qj, p2, q2)
		}
		sj.Ckpt = &run.Checkpoint{Step: decoded.StartK}
		joiner[p] = sj
	}

	// Attempt 2: the survivors resume on the fresh cluster.
	outs2 := attemptOn(fabs2, func(p int) run.State {
		if p == 0 {
			return s2
		}
		return joiner[p]
	}, job, opts)
	for p, o := range outs2 {
		if o.Err != nil {
			t.Fatalf("resume attempt, process %d: %v", p, o.Err)
		}
	}
	if outs2[0].Out == nil || !outs2[0].Out.Equal(oracle.C) {
		t.Fatal("crash→replan→resume over TCP is not bit-identical to the fault-free factorization")
	}
	stats.Fold(outs2[0])
	if f := stats.Faults; f.Attempts != 2 || f.Recoveries != 1 || f.ResumedSteps != s2.StartK() ||
		f.Checkpoints != outs[0].Checkpoints+outs2[0].Checkpoints {
		t.Fatalf("coordinator's fault statistics: %+v", f)
	}
}

// TestTCPCrashOnCheckpointStep is the commit rule over real sockets, with
// the snapshot advanced in place. Checkpoints every 2 steps. Attempt 1
// loses rank 5 entering step 4: its delta never leaves process 2 while the
// other ranks' are already staged at rank 0, so the run resumes from commit
// 2 (certain, by the dependency chain TestTCPCrashReplanResume spells out).
// Attempt 2 advances the coordinator's snapshot in place and loses rank 2
// entering step 6, a checkpoint step again: it resumes from the newest
// commit that completed — 4, or still 2 when the abort overtook rank 0.
// Attempt 3 finishes, bit-identical to the fault-free oracle.
func TestTCPCrashOnCheckpointStep(t *testing.T) {
	const nb, procs, r, every = 8, 3, 2, 2
	d, err := distribution.UniformBlockCyclic(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(8)))
	oracle, err := kernels.ReplayLUNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	job := run.Job{BlockSize: r, Inputs: []*matrix.Dense{a}}
	opts := run.Options{Engine: engine.Options{Faults: &engine.FaultConfig{}}, CheckpointEvery: every}

	// Next is pure: the coordinator takes the transition once and ships the
	// result; the joiners need the checkpoint's step, not its matrix.
	states := make([]run.State, procs)
	for p := range states {
		states[p] = run.State{Kernel: plan.LU, Dist: d, Times: ones(6), Recoveries: 2}
	}
	attempt := func() []run.Outcome {
		p, q := states[0].Dist.Dims()
		fabs, _ := enginenet.StartCluster(t, p*q, procs, nil)
		return attemptOn(fabs, func(p int) run.State { return states[p] }, job, opts)
	}
	var stats run.Result
	for _, crash := range []engine.CrashPoint{{Rank: 5, Step: 4}, {Rank: 2, Step: 6}} {
		for p := range states {
			states[p].Crashes = []engine.CrashPoint{crash}
		}
		from := states[0].StartK()
		outs := attempt()
		stats.Fold(outs[0])
		var rf *engine.RankFailure
		if !errors.As(outs[0].Err, &rf) || rf.Rank != crash.Rank {
			t.Fatalf("want the failure of rank %d, got %v", crash.Rank, outs[0].Err)
		}
		next, err := states[0].Next(outs[0])
		if err != nil {
			t.Fatal(err)
		}
		stats.Advance(outs[0], next)
		k := next.StartK()
		if k >= crash.Step || k%every != 0 || k < max(from, every) {
			t.Fatalf("rank %d died entering checkpoint step %d: resuming from step %d (was %d)", crash.Rank, crash.Step, k, from)
		}
		for p := range states {
			states[p] = next
			if p != 0 {
				states[p].Ckpt = &run.Checkpoint{Step: k}
			}
		}
	}
	for p, o := range attempt() {
		if o.Err != nil {
			t.Fatalf("final attempt, process %d: %v", p, o.Err)
		}
		if p == 0 {
			stats.Fold(o)
			if o.Out == nil || !o.Out.Equal(oracle.C) {
				t.Fatal("LU recovered past two crashes on checkpoint steps is not bit-identical to the fault-free factorization")
			}
		}
	}
	if f := stats.Faults; f.Attempts != 3 || f.Recoveries != 2 {
		t.Fatalf("coordinator's fault statistics: %+v", f)
	}
}
