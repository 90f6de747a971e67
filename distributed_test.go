package hetgrid

import (
	"math/rand"
	"reflect"
	"testing"

	"hetgrid/internal/matrix"
)

// TestSimulateBroadcastSelection: the zero SimOptions simulates the flat
// broadcast, the default of real executions too, and the kind changes the
// schedule. On a 2×3 grid a row broadcast reaches two receivers, so the
// flat and the ring schedules differ.
func TestSimulateBroadcastSelection(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5, 7, 11}, 2, 3, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Uniform(2, 3, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(k Kernel, opts SimOptions) *SimResult {
		t.Helper()
		opts.Latency, opts.ByteTime, opts.BlockBytes = 1e-4, 1e-8, 8*32*32
		res, err := Simulate(k, d, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, k := range []Kernel{LU, Cholesky} {
		def := simulate(k, SimOptions{})
		flat := simulate(k, SimOptions{Broadcast: FlatBroadcast})
		ring := simulate(k, SimOptions{Broadcast: RingBroadcast})
		pipe := simulate(k, SimOptions{Broadcast: PipelinedRingBroadcast})
		if !reflect.DeepEqual(def, flat) {
			t.Fatalf("%v: default result (makespan %v) differs from flat (%v)", k, def.Makespan, flat.Makespan)
		}
		if def.Makespan == ring.Makespan {
			t.Fatalf("%v: default makespan %v equals ring's: the case cannot tell the defaults apart", k, def.Makespan)
		}
		if pipe.Makespan == ring.Makespan {
			t.Fatalf("%v: pipelining had no effect on the simulated schedule", k)
		}
	}
}

func TestDistributedMultiplyBadBlockSize(t *testing.T) {
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.New(10, 10) // 4 blocks of 3 ≠ 10
	if _, _, err := DistributedMultiply(d, a, a, 3); err == nil {
		t.Fatal("mismatched block size accepted")
	}
}

// TestDistributedLeavesInputs: every kernel reads the caller's matrices and
// never writes them. The engine's Send hands its payload over, so Scatter
// must send the owners copies of the caller's blocks, not views of them that
// a factorization would overwrite in place.
func TestDistributedLeavesInputs(t *testing.T) {
	const nb, r = 6, 4
	rng := rand.New(rand.NewSource(49))
	a := matrix.RandomWellConditioned(nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	spd := matrix.RandomSPD(nb*r, rng)
	d, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kept := func(name string, ms []*Matrix, run func() error) {
		was := make([]*Matrix, len(ms))
		for i, m := range ms {
			was[i] = m.Clone()
		}
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range ms {
			if !m.Equal(was[i]) {
				t.Errorf("%s changed its input %d", name, i)
			}
		}
	}
	kept("multiply", []*Matrix{a, b}, func() error {
		_, _, err := DistributedMultiply(d, a, b, r)
		return err
	})
	for k, in := range map[Kernel]*Matrix{LU: a, Cholesky: spd, QR: a} {
		kept(k.String(), []*Matrix{in}, func() error {
			_, _, err := DistributedFactor(k, d, in, r)
			return err
		})
	}
}
