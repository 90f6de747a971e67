package hetgrid

import (
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
)

func TestSimulateBroadcastSelection(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Uniform(2, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Simulate(LU, d, plan, SimOptions{Latency: 1e-4, ByteTime: 1e-8, BlockBytes: 8 * 32 * 32})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Simulate(LU, d, plan, SimOptions{Latency: 1e-4, ByteTime: 1e-8, BlockBytes: 8 * 32 * 32, Broadcast: RingBroadcast})
	if err != nil {
		t.Fatal(err)
	}
	// BroadcastAuto preserves the simulator's historical default, the ring
	// broadcast.
	if auto.Makespan != ring.Makespan {
		t.Fatalf("auto makespan %v differs from ring %v", auto.Makespan, ring.Makespan)
	}
	// On a 2×2 grid star, ring and tree schedules coincide (every broadcast
	// has at most one forwarding hop), but segment pipelining still changes
	// the message structure and therefore the makespan.
	pipe, err := Simulate(LU, d, plan, SimOptions{Latency: 1e-4, ByteTime: 1e-8, BlockBytes: 8 * 32 * 32, Broadcast: PipelinedRingBroadcast})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Makespan == ring.Makespan {
		t.Fatal("broadcast kind had no effect on the simulated schedule")
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
