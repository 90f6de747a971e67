package net_test

// Golden parity over real sockets: the distributed kernels must produce
// bit-identical results whether their messages travel through in-process
// mailboxes (MemTransport) or framed loopback TCP (the net Fabric), for
// every kernel and every broadcast kind — and the fault machinery
// (crash → replan → resume recovery) must compose with the real network
// unchanged. Every run goes through run.Attempt, the
// job body the library executes; the multi-attempt tests take their
// transitions with State.Next.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/grid"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/plan"
	"hetgrid/internal/run"
	"hetgrid/internal/sim"
)

var netKinds = []struct {
	name string
	kind sim.BroadcastKind
}{
	{"flat", sim.StarBroadcast},
	{"ring", sim.RingBroadcast},
	{"segring", sim.SegmentedRingBroadcast},
	{"tree", sim.TreeBroadcast},
}

// startFabrics brings up a loopback-TCP cluster through the exported
// handshake API and returns the fabrics indexed by process id.
func startFabrics(t *testing.T, world, procs int, payload []byte) ([]*enginenet.Fabric, []byte) {
	t.Helper()
	co, err := enginenet.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	fabs := make([]*enginenet.Fabric, procs)
	errs := make([]error, procs)
	var joinPayload []byte
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(procs)
	go func() {
		defer wg.Done()
		f, err := co.Establish(ctx, world, procs, payload, nil)
		mu.Lock()
		fabs[0], errs[0] = f, err
		mu.Unlock()
	}()
	for i := 1; i < procs; i++ {
		go func(i int) {
			defer wg.Done()
			f, pay, err := enginenet.Join(ctx, co.Addr(), nil)
			mu.Lock()
			if err != nil {
				errs[i] = err
			} else {
				fabs[f.ProcID()] = f
				joinPayload = pay
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d handshake: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabs {
			if f != nil {
				cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
				f.Close(cctx)
				ccancel()
			}
		}
	})
	return fabs, joinPayload
}

// attemptCluster runs one run.Attempt of s on every process of a fresh
// loopback-TCP cluster (closed at test cleanup) and returns the outcomes
// indexed by process id. Each process spawns goroutines only for its own
// ranks, the fabric carries everything else; the inputs exist where rank 0
// lives (process 0) and nowhere else.
func attemptCluster(t *testing.T, procs int, s run.State, job run.Job, opts run.Options) []run.Outcome {
	t.Helper()
	p, q := s.Dist.Dims()
	fabs, _ := startFabrics(t, p*q, procs, nil)
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

// hetDist is the heterogeneous 2×3 Kalinov–Lastovetsky distribution the
// acceptance criterion names: relative speeds {1,2,2;3,5,4}, 6×6 blocks.
func hetDist(t *testing.T) distribution.Distribution {
	t.Helper()
	d, err := distribution.NewKL(grid.MustNew([][]float64{{1, 2, 2}, {3, 5, 4}}), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTCPParityGolden is the headline golden test: MM, LU, Cholesky and QR
// on the heterogeneous 2×3 grid, over 3 OS-level socket pairs (loopback
// TCP), bit-identical to the MemTransport run for all four broadcast
// kinds — and the LU result anchored to the serial replay oracle.
func TestTCPParityGolden(t *testing.T) {
	d := hetDist(t)
	const world, procs, r = 6, 3, 2
	rng := rand.New(rand.NewSource(42))
	a := matrix.RandomWellConditioned(12, rng)
	b := matrix.Random(12, 12, rng)
	spd := matrix.RandomSPD(12, rng)

	oracle, err := kernels.ReplayLUNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}

	for _, kc := range []struct {
		name   string
		kern   plan.Kernel
		inputs []*matrix.Dense
	}{
		{"mm", plan.MatMul, []*matrix.Dense{a, b}},
		{"lu", plan.LU, []*matrix.Dense{a}},
		{"chol", plan.Cholesky, []*matrix.Dense{spd}},
		{"qr", plan.QR, []*matrix.Dense{a}},
	} {
		kern, job := kc.kern, run.Job{BlockSize: r, Inputs: kc.inputs}
		s := run.State{Kernel: kern, Dist: d, Times: ones(world)}
		for _, bk := range netKinds {
			t.Run(kc.name+"/"+bk.name, func(t *testing.T) {
				opts := run.Options{Engine: engine.Options{Broadcast: bk.kind}}
				want := run.Attempt(s, job, nil, opts)
				if want.Err != nil {
					t.Fatalf("mem reference run: %v", want.Err)
				}
				outs := attemptCluster(t, procs, s, job, opts)
				for p, o := range outs {
					if o.Err != nil {
						t.Fatalf("process %d: %v", p, o.Err)
					}
				}
				if outs[0].Out == nil || !outs[0].Out.Equal(want.Out) {
					t.Fatal("TCP result differs from the MemTransport run")
				}
				if kern == plan.LU && !outs[0].Out.Equal(oracle.C) {
					t.Fatal("TCP LU differs from the serial replay oracle")
				}
			})
		}
	}
}

// TestTCPQRPackedPathMatchesReplay is QR across sockets at a block size
// whose compact-WY products reach the packed GEMM (the golden above runs
// r = 2, all scalar): slab masters in other processes re-derive T from the
// panel and taus they receive, and the result is the serial replay's, bit
// for bit.
func TestTCPQRPackedPathMatchesReplay(t *testing.T) {
	d := hetDist(t)
	const world, procs, r = 6, 3, 16
	a := matrix.Random(6*r, 6*r, rand.New(rand.NewSource(43)))
	oracle, err := kernels.ReplayQRNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	s := run.State{Kernel: plan.QR, Dist: d, Times: ones(world)}
	outs := attemptCluster(t, procs, s, run.Job{BlockSize: r, Inputs: []*matrix.Dense{a}}, run.Options{})
	for p, o := range outs {
		if o.Err != nil {
			t.Fatalf("process %d: %v", p, o.Err)
		}
	}
	if outs[0].Out == nil || !outs[0].Out.Equal(oracle.C) {
		t.Fatal("TCP QR differs from the serial replay oracle")
	}
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
	fabs2, joinPayload := startFabrics(t, p2*q2, procs, payload)
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
		fabs, _ := startFabrics(t, p*q, procs, nil)
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
