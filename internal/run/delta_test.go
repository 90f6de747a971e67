package run

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/grid"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
)

// families returns the three distribution families over nb×nb blocks on the
// heterogeneous 2×3 grid (a non-square processor grid for every kernel).
func families(t *testing.T, nb int) map[string]distribution.Distribution {
	t.Helper()
	arr := grid.MustNew([][]float64{{1, 2, 2}, {3, 5, 4}})
	uni, err := distribution.UniformBlockCyclic(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := distribution.NewKL(arr, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := distribution.BestPanel(sol, 6, 6, distribution.Interleaved, distribution.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	het, err := pan.Distribution(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]distribution.Distribution{"uniform": uni, "kl": kl, "het-panel": het}
}

// snapshotAt runs a fresh attempt that checkpoints every `every` steps and
// returns the snapshot whose newest commit is step k. Rank 0 itself dies
// entering step k+1, so its step-k commit is behind it whatever the other
// ranks' pace; the last commit step of a run is read off a clean run.
func snapshotAt(t *testing.T, s State, job Job, every, k, nb int) *Checkpoint {
	t.Helper()
	opts := Options{Engine: engine.Options{Faults: &engine.FaultConfig{}}, CheckpointEvery: every}
	clean := k+every >= nb
	if !clean {
		s.Crashes = []engine.CrashPoint{{Rank: 0, Step: k + 1}}
	}
	o := Attempt(s, job, nil, opts)
	var rf *engine.RankFailure
	if stopped := errors.As(o.Err, &rf) && rf.Rank == 0 && rf.Step == k+1; clean && o.Err != nil || !clean && !stopped {
		t.Fatalf("every %d, stop after %d: %v", every, k, o.Err)
	}
	if o.Ckpt == nil || o.Ckpt.Step != k {
		t.Fatalf("every %d: newest checkpoint %+v, want step %d", every, o.Ckpt, k)
	}
	return o.Ckpt
}

// TestDeltaSnapshotEqualsFullGather is the invariant the delta commit rests
// on: at every commit step the snapshot advanced by chained deltas is
// bit-identical to a full gather taken at the same step (an attempt whose
// first commit is that step selects every block). A kernel that ever wrote
// a block outside Region.Contains(·,·,k) at step k would fail here.
func TestDeltaSnapshotEqualsFullGather(t *testing.T) {
	const nb, r = 7, 2
	rng := rand.New(rand.NewSource(1601))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	inputs := map[plan.Kernel][]*matrix.Dense{
		plan.MatMul: {a, b}, plan.LU: {a}, plan.Cholesky: {spd}, plan.QR: {a},
	}
	for name, d := range families(t, nb) {
		for kern, in := range inputs {
			for _, every := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/every%d", kern, name, every), func(t *testing.T) {
					s := State{Kernel: kern, Dist: d, Times: []float64{1, 2, 2, 3, 5, 4}}
					job := Job{BlockSize: r, Inputs: in}
					for k := every; k < nb; k += every {
						chained := snapshotAt(t, s, job, every, k, nb)
						full := snapshotAt(t, s, job, k, k, nb)
						if !chained.Work.Equal(full.Work) {
							t.Fatalf("step %d: chained deltas differ from a full gather", k)
						}
					}
				})
			}
		}
	}
}
