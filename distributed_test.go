package hetgrid

import (
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
)

func TestDistributedMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.Panel(4, 3, MatMul)
	if err != nil {
		t.Fatal(err)
	}
	const nb, r = 8, 4
	d, err := layout.Distribute(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(nb*r, nb*r, rng)
	b := matrix.Random(nb*r, nb*r, rng)
	c, _, err := DistributedMultiply(d, a, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EqualApprox(matrix.Mul(a, b), 1e-10) {
		t.Fatal("distributed product differs from serial")
	}
}

func TestDistributedFactorLU(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 3
	a := matrix.RandomWellConditioned(18, rng)
	f, _, err := DistributedFactor(LU, d, a, r)
	if err != nil {
		t.Fatal(err)
	}
	l, u := f.LU()
	if !matrix.Mul(l, u).EqualApprox(a, 1e-8) {
		t.Fatal("distributed LU: L·U != A")
	}
}

func TestDistributedFactorQR(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	d, err := Uniform(2, 2, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	const nb, r = 5, 3
	a := matrix.Random(nb*r, nb*r, rng)
	f, _, err := DistributedFactor(QR, d, a, r)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul(f.Q(r), f.R()).EqualApprox(a, 1e-9) {
		t.Fatal("distributed QR: Q·R != A")
	}
}

func TestDistributedExecStatsBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	d, err := Uniform(2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 2
	a := matrix.RandomWellConditioned(12, rng)
	f, stats, err := DistributedFactor(LU, d, a, r, WithSpans())
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("no result")
	}
	if len(stats.Ranks) != 6 || len(stats.Pairs) != 6 {
		t.Fatalf("expected 6-rank breakdowns, got %d/%d", len(stats.Ranks), len(stats.Pairs))
	}
	var msgs, bytes, pairMsgs int
	for _, rs := range stats.Ranks {
		msgs += rs.MsgsSent
		bytes += rs.BytesSent
	}
	for _, row := range stats.Pairs {
		for _, ps := range row {
			pairMsgs += ps.Messages
		}
	}
	if msgs != stats.Messages || bytes != stats.Bytes || pairMsgs != stats.Messages {
		t.Fatalf("per-rank sums (%d msgs, %d bytes; pairs %d) != totals (%d, %d)",
			msgs, bytes, pairMsgs, stats.Messages, stats.Bytes)
	}
	if len(stats.Spans) == 0 {
		t.Fatal("spans requested but empty")
	}
	// Without the option the spans stay nil (no recording overhead).
	_, plain, err := DistributedFactor(LU, d, a, r)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Spans != nil {
		t.Fatal("spans recorded without being requested")
	}
}

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
