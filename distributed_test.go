package hetgrid

import (
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
