package hetgrid

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

var allBroadcastKinds = []BroadcastKind{FlatBroadcast, RingBroadcast, PipelinedRingBroadcast, TreeBroadcast}

// TestDeadRankAbortsCleanly is the no-recovery acceptance check: with a
// silently dead rank, every broadcast kind aborts with a clean
// *RankFailure instead of hanging, and no rank goroutines leak.
func TestDeadRankAbortsCleanly(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 2
	a := matrix.RandomWellConditioned(12, rng)
	before := runtime.NumGoroutine()
	for _, bk := range allBroadcastKinds {
		t.Run(bk.String(), func(t *testing.T) {
			_, _, err := DistributedFactor(LU, d, a, r,
				WithBroadcast(bk),
				WithFaults(FaultOptions{
					Crashes:     []CrashPoint{{Rank: 3, Step: 2, Silent: true}},
					RecvTimeout: 140 * time.Millisecond,
				}))
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("want *RankFailure, got %v", err)
			}
			if rf.Rank != 3 {
				t.Fatalf("failure names rank %d, want 3", rf.Rank)
			}
		})
	}
	// All rank goroutines must have exited.
	leakcheck.Settle(t, before)
}

// TestCrashOnCheckpointStep: a rank dies entering a checkpoint step, so it
// never sends its delta while the others already have. Rank 0 holds those
// arrivals back, the commit never happens, and the run resumes from the
// previous commit with that commit's contents. Checkpoints every 2 steps,
// rank 1 dies at step 4: every kernel's step 2 on rank 1 consumes a panel
// rank 0 sends after its step-2 commit, so commit 2 is certain; the resumed
// attempt commits 4 and 6 in place and each of its ranks records the
// commit as a phase span.
func TestCrashOnCheckpointStep(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	d, err := Uniform(2, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const r = 2
	a, b := matrix.RandomWellConditioned(16, rng), matrix.Random(16, 16, rng)
	spd := matrix.RandomSPD(16, rng)
	// run returns what the kernel produced: the product or the packed
	// factors, and for QR the explicit Q the tau scalings rebuild.
	run := func(k Kernel, opts ...Option) ([]*Matrix, *ExecStats) {
		t.Helper()
		if k == MatMul {
			c, st, err := DistributedMultiply(d, a, b, r, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return []*Matrix{c}, st
		}
		in := a
		if k == Cholesky {
			in = spd
		}
		f, st, err := DistributedFactor(k, d, in, r, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if k == QR {
			return []*Matrix{f.Packed(), f.Q(r)}, st
		}
		return []*Matrix{f.Packed()}, st
	}
	for _, k := range []Kernel{MatMul, LU, Cholesky, QR} {
		t.Run(k.String(), func(t *testing.T) {
			clean, _ := run(k)
			got, stats := run(k, WithSpans(), WithFaults(FaultOptions{
				Recover:         true,
				CheckpointEvery: 2,
				Crashes:         []CrashPoint{{Rank: 1, Step: 4}},
			}))
			for i := range clean {
				if !got[i].Equal(clean[i]) {
					t.Fatal("result recovered past a crash on a checkpoint step differs from the fault-free run")
				}
			}
			fs := stats.Faults
			if fs.Attempts != 2 || fs.Recoveries != 1 || fs.Checkpoints != 3 || fs.ResumedSteps != 2 {
				t.Fatalf("want 2 attempts, 1 recovery, 3 checkpoints, 2 resumed steps: %+v", fs)
			}
			phases := map[string]int{}
			for _, sp := range stats.Spans {
				if sp.Kind == obs.SpanPhase && strings.HasPrefix(sp.Name, "checkpoint ") {
					phases[sp.Name]++
				}
			}
			if len(phases) != 2 || phases["checkpoint 4"] != 3 || phases["checkpoint 6"] != 3 {
				t.Fatalf("the three survivors' commit phases: %v", phases)
			}
		})
	}
}

// TestFailedResumeKeepsCheckpoint: a resumed attempt advances the run's
// snapshot in place, and whatever way it fails, the next one resumes from
// the newest commit with that commit's contents. Checkpoints every 2
// steps: attempt 1 commits step 2 and loses rank 3 at step 3 (the owner of
// that step's diagonal block, so nobody gets far enough to fire a later
// crash point in the same attempt); attempt 2 starts at 2 and loses rank 2
// entering step 4 (its commit dies mid-gather); attempt 3 starts at 2
// again, commits the step-4 delta in place and loses rank 0 at step 5 —
// behind its own commit, so 4 is certain; attempt 4 starts at 4 and
// commits 6.
func TestFailedResumeKeepsCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	d, err := Uniform(2, 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const r = 3
	a := matrix.RandomWellConditioned(24, rng)
	got, stats, err := DistributedFactor(LU, d, a, r, WithFaults(FaultOptions{
		Recover:         true,
		CheckpointEvery: 2,
		Crashes:         []CrashPoint{{Rank: 3, Step: 3}, {Rank: 2, Step: 4}, {Rank: 0, Step: 5}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packed().Equal(factorPacked(t, LU, d, a)) {
		t.Fatal("thrice-recovered LU differs from the serial factorization")
	}
	fs := stats.Faults
	if fs.Attempts != 4 || fs.Recoveries != 3 || fs.Checkpoints != 3 || fs.ResumedSteps != 8 {
		t.Fatalf("want 4 attempts, 3 recoveries, 3 checkpoints, 8 resumed steps: %+v", fs)
	}
}

// TestRecoveryBudgetExhausted: more crashes than MaxRecoveries allows
// surfaces the budget error instead of looping.
func TestRecoveryBudgetExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(508))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(12, rng)
	_, _, err = DistributedFactor(LU, d, a, 2, WithFaults(FaultOptions{
		Crashes: []CrashPoint{
			{Rank: 0, Step: 1}, {Rank: 0, Step: 1}, {Rank: 0, Step: 1},
		},
		Recover:       true,
		MaxRecoveries: 2,
	}))
	if err == nil {
		t.Fatal("recovery budget violation went unnoticed")
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("budget error should wrap the final *RankFailure, got %v", err)
	}
}

// TestPlanSurvivors: replanning three survivors of a 2×2 grid yields a
// usable distribution over the unchanged block matrix.
func TestPlanSurvivors(t *testing.T) {
	dist, choice, err := PlanSurvivors([]float64{1, 1, 1}, 8, 8, LU)
	if err != nil {
		t.Fatal(err)
	}
	if nbr, nbc := dist.Blocks(); nbr != 8 || nbc != 8 {
		t.Fatalf("block grid changed: %d×%d", nbr, nbc)
	}
	if choice.P*choice.Q > 3 || choice.P*choice.Q < 1 {
		t.Fatalf("implausible survivor grid %d×%d", choice.P, choice.Q)
	}
	if _, err := distribution.NewLayout(dist); err != nil {
		t.Fatal(err)
	}
	if _, _, err := PlanSurvivors(nil, 8, 8, LU); err == nil {
		t.Fatal("empty survivor set accepted")
	}
}

// strayOwner is a user Distribution whose block (1,1) names a processor
// outside its 2×2 grid.
type strayOwner struct{}

func (strayOwner) Dims() (int, int)   { return 2, 2 }
func (strayOwner) Blocks() (int, int) { return 4, 4 }
func (strayOwner) Name() string       { return "stray-owner" }
func (strayOwner) Owner(bi, bj int) (int, int) {
	if bi == 1 && bj == 1 {
		return 2, 0
	}
	return bi % 2, bj % 2
}

// TestInvalidDistributionRejected: every execution and simulation path
// validates a user Distribution before using it, so an owner outside the
// grid is an error, not a panic or a wrong answer.
func TestInvalidDistributionRejected(t *testing.T) {
	var d Distribution = strayOwner{}
	a := matrix.RandomWellConditioned(8, rand.New(rand.NewSource(606)))
	if _, _, err := DistributedFactor(LU, d, a, 2); err == nil {
		t.Fatal("DistributedFactor accepted an owner outside the grid")
	}
	if _, _, err := DistributedMultiply(d, a, a, 2); err == nil {
		t.Fatal("DistributedMultiply accepted an owner outside the grid")
	}
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{MatMul, LU, QR, Cholesky} {
		if _, err := Simulate(k, d, plan, SimOptions{}); err == nil {
			t.Fatalf("Simulate(%v) accepted an owner outside the grid", k)
		}
	}
}
