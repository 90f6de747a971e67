package run

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

// partial is a fabric that hosts only rank 0 of its world here. It counts
// the attempts that ask it which ranks it hosts.
type partial struct {
	engine.Transport
	attempts *int
}

func (f partial) LocalRanks() []int {
	*f.attempts++
	return []int{0}
}

// TestRunLoopsOnlyOverWholeWorlds: a fabric hosting part of the world gets
// exactly one attempt, even with recovery budget at hand — the other
// processes hold no checkpoint and could not follow. The outcome comes
// back beside the error for the caller's coordinator.
func TestRunLoopsOnlyOverWholeWorlds(t *testing.T) {
	s := State{
		Kernel: plan.LU, Dist: uniform(t, 1, 2), Times: []float64{1, 1},
		Crashes: []engine.CrashPoint{{Rank: 0, Step: 1}}, Recoveries: 3,
	}
	job := Job{BlockSize: 2, Inputs: []*matrix.Dense{matrix.RandomWellConditioned(12, rand.New(rand.NewSource(1)))}}
	calls := 0
	res, err := Run(s, job, partial{engine.NewMemTransport(2), &calls},
		Options{Engine: engine.Options{Faults: &engine.FaultConfig{}}, CheckpointEvery: 1})
	if err == nil || !strings.Contains(err.Error(), "a fixed transport serves exactly one world") {
		t.Fatalf("want the one-world refusal, got %v", err)
	}
	var rf *engine.RankFailure
	if !errors.As(err, &rf) || rf.Rank != 0 || rf.Step != 1 {
		t.Fatalf("the failure is not reachable through the error: %v", err)
	}
	if calls != 1 {
		t.Fatalf("%d attempts on a partial fabric, want 1", calls)
	}
	if next, err := s.Next(res.Outcome); err != nil || next.Recoveries != 2 || res.Faults.Attempts != 1 {
		t.Fatalf("the outcome does not feed Next: %+v, %v", next, err)
	}
}
