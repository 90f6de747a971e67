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

// TestCommitTrafficIsExact holds a run that commits to its traffic exactly:
// a fault-free attempt that checkpoints every 1 or 3 steps sends the
// kernel's closed-form volume, the scatter of each input, each commit's
// MasterVolume — the first over every block, each later one over the
// kernel's region at the previous commit — and the final gather, message
// for message and byte for byte. A commit that gathered more blocks than
// can have changed, or fewer, would fail here.
func TestCommitTrafficIsExact(t *testing.T) {
	const nb, r = 7, 2
	rng := rand.New(rand.NewSource(5201))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	inputs := map[plan.Kernel][]*matrix.Dense{
		plan.MatMul: {a, b}, plan.LU: {a}, plan.Cholesky: {spd}, plan.QR: {a},
	}
	volume := map[plan.Kernel]func(distribution.Distribution, float64) (*distribution.CommVolume, error){
		plan.MatMul: distribution.MMCommVolume, plan.LU: distribution.LUCommVolume,
		plan.Cholesky: distribution.CholeskyCommVolume, plan.QR: distribution.QRCommVolume,
	}
	block := float64(8 * r * r)
	for name, d := range families(t, nb) {
		all := distribution.MasterVolume(d, block, distribution.All, 0)
		for kern, in := range inputs {
			for _, every := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/every%d", kern, name, every), func(t *testing.T) {
					s := State{Kernel: kern, Dist: d, Times: []float64{1, 2, 2, 3, 5, 4}}
					o := Attempt(s, Job{BlockSize: r, Inputs: in}, nil, Options{CheckpointEvery: every})
					if o.Err != nil {
						t.Fatal(o.Err)
					}
					want, err := volume[kern](d, block)
					if err != nil {
						t.Fatal(err)
					}
					msgs, bytes := want.Messages+(len(in)+1)*all.Messages, want.Bytes+float64(len(in)+1)*all.Bytes
					commits := 0
					for k := every; k < nb; k += every {
						c := all
						if commits > 0 {
							c = distribution.MasterVolume(d, block, kern.Region(), k-every)
						}
						msgs, bytes, commits = msgs+c.Messages, bytes+c.Bytes, commits+1
					}
					if o.Checkpoints != commits {
						t.Fatalf("%d commits, want %d", o.Checkpoints, commits)
					}
					if o.World.Messages() != msgs || float64(o.World.Bytes()) != bytes {
						t.Fatalf("%d messages, %d bytes; want %d, %v", o.World.Messages(), o.World.Bytes(), msgs, bytes)
					}
				})
			}
		}
	}
}

// TestCommitIsTheStateAtItsStep: a checkpoint holds the working matrix as
// it stood at its commit step, however far the owners have run on by the
// time rank 0 splices their blocks in. Rank 0 is slowed, so the other ranks
// send their deltas early and go on into the step while it still waits;
// the snapshot must equal the one a world takes that stops every rank at
// the commit.
func TestCommitIsTheStateAtItsStep(t *testing.T) {
	const nb, r, k = 6, 16, 3
	rng := rand.New(rand.NewSource(4901))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	d := uniform(t, 2, 2)
	for _, kern := range []plan.Kernel{plan.MatMul, plan.LU, plan.Cholesky, plan.QR} {
		in := []*matrix.Dense{a}
		switch kern {
		case plan.MatMul:
			in = []*matrix.Dense{a, b}
		case plan.Cholesky:
			in = []*matrix.Dense{spd}
		}
		s := State{Kernel: kern, Dist: d, Times: []float64{1, 1, 1, 1}}
		job := Job{BlockSize: r, Inputs: in}
		slow := &engine.FaultConfig{Slowdowns: []engine.SlowdownPoint{{Rank: 0, Step: 0, Factor: 20}}}
		o := Attempt(s, job, nil, Options{Engine: engine.Options{Faults: slow}, CheckpointEvery: k})
		if o.Err != nil || o.Ckpt == nil || o.Ckpt.Step != k {
			t.Fatalf("%s: newest checkpoint %+v, err %v; want step %d", kern, o.Ckpt, o.Err, k)
		}
		if !o.Ckpt.Work.Equal(stoppedAt(t, s, job, k)) {
			t.Fatalf("%s: the steps after the commit changed the checkpoint", kern)
		}
	}
}

// stoppedAt returns rank 0's snapshot from a world whose ranks all stop
// at their step-k commit: no step after it runs on any rank.
func stoppedAt(t *testing.T, s State, job Job, k int) *matrix.Dense {
	t.Helper()
	errStop := errors.New("stopped at the commit")
	d, r := s.Dist, job.BlockSize
	p, q := d.Dims()
	var snap *matrix.Dense
	_, err := engine.RunOpts(p*q, engine.Options{}, func(c *engine.Comm) error {
		var in []*engine.BlockStore
		for _, m := range job.Inputs {
			st, err := engine.Scatter(c, d, m, r)
			if err != nil {
				return err
			}
			in = append(in, st)
		}
		work := in[0]
		if s.Kernel == plan.MatMul {
			work = engine.ZeroStore(c, d, r)
		}
		if c.Rank() == 0 {
			nbr, nbc := d.Blocks()
			snap = matrix.New(nbr*r, nbc*r)
		}
		c.SetStepHook(func(j int) bool { return j == k }, func(int) error {
			if err := engine.GatherInto(c, d, work, "stop", snap, distribution.All, 0); err != nil {
				return err
			}
			// Nobody leaves before rank 0 has the last block: a rank
			// that returns closes the world.
			barrier(c, "stop")
			return errStop
		})
		switch s.Kernel {
		case plan.MatMul:
			return engine.MMInto(c, d, in[0], in[1], work)
		case plan.LU:
			return engine.LU(c, d, work)
		case plan.Cholesky:
			return engine.Cholesky(c, d, work)
		default:
			_, err := engine.QR(c, d, work)
			return err
		}
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("%s: the stopped world ended with %v", s.Kernel, err)
	}
	return snap
}
