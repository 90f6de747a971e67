package hetgrid

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

// TestParseRoundTrips: every enum value round-trips through
// String()/Parse*, the documented aliases resolve, parsing is
// case-insensitive, and junk is rejected.
func TestParseRoundTrips(t *testing.T) {
	for _, b := range []BroadcastKind{BroadcastAuto, FlatBroadcast, RingBroadcast, PipelinedRingBroadcast, TreeBroadcast} {
		got, err := ParseBroadcast(b.String())
		if err != nil || got != b {
			t.Fatalf("broadcast %v round-trips to (%v, %v)", b, got, err)
		}
	}
	for _, k := range []Kernel{MatMul, LU, QR, Cholesky} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("kernel %v round-trips to (%v, %v)", k, got, err)
		}
	}
	for _, s := range []Strategy{StrategyAuto, StrategyHeuristic, StrategyExact} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("strategy %v round-trips to (%v, %v)", s, got, err)
		}
	}
	aliases := []struct {
		in   string
		want BroadcastKind
	}{{"star", FlatBroadcast}, {"segring", PipelinedRingBroadcast}, {"TREE", TreeBroadcast}}
	for _, a := range aliases {
		if got, err := ParseBroadcast(a.in); err != nil || got != a.want {
			t.Fatalf("ParseBroadcast(%q) = (%v, %v), want %v", a.in, got, err, a.want)
		}
	}
	if got, err := ParseKernel("MM"); err != nil || got != MatMul {
		t.Fatalf("ParseKernel(MM) = (%v, %v)", got, err)
	}
	if got, err := ParseKernel("chol"); err != nil || got != Cholesky {
		t.Fatalf("ParseKernel(chol) = (%v, %v)", got, err)
	}
	for _, bad := range []string{"", "bogus", "flat "} {
		if _, err := ParseBroadcast(bad); err == nil {
			t.Fatalf("ParseBroadcast(%q) accepted", bad)
		}
	}
	if _, err := ParseKernel("svd"); err == nil {
		t.Fatal("ParseKernel(svd) accepted")
	}
	if _, err := ParseStrategy("brute"); err == nil {
		t.Fatal("ParseStrategy(brute) accepted")
	}
}

// factorPacked returns the serial replay's packed factors — the oracle the
// distributed executions are compared against.
func factorPacked(t *testing.T, k Kernel, d Distribution, a *Matrix) *Matrix {
	t.Helper()
	f, err := Factor(k, d, a)
	if err != nil {
		t.Fatal(err)
	}
	return f.Packed()
}

// TestOptionsEquivalence: one option slice is valid at every variadic
// entry point — options that do not apply to a call are ignored — and
// scheduling options (broadcast algorithm, parallelism, solver workers)
// never change a result: bit-identical products, factors and plans. A
// broadcast kind outside the enum is an error.
func TestOptionsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 3
	a, b := matrix.Random(18, 18, rng), matrix.Random(18, 18, rng)
	opts := []Option{WithBroadcast(TreeBroadcast), WithParallelism(2), WithWorkers(1), nil}

	plain, plainStats, err := DistributedMultiply(d, a, b, r)
	if err != nil {
		t.Fatal(err)
	}
	tuned, tunedStats, err := DistributedMultiply(d, a, b, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Equal(plain) {
		t.Fatal("scheduling options changed the product")
	}
	// On a 2×2 grid every broadcast has one receiver, so the tree and the
	// flat broadcast send the same messages.
	if tunedStats.Messages != plainStats.Messages || tunedStats.Bytes != plainStats.Bytes {
		t.Fatalf("traffic differs: %d/%d msgs, %d/%d bytes",
			tunedStats.Messages, plainStats.Messages, tunedStats.Bytes, plainStats.Bytes)
	}

	lu := matrix.RandomWellConditioned(18, rng)
	tunedLU, _, err := DistributedFactor(LU, d, lu, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !tunedLU.Packed().Equal(factorPacked(t, LU, d, lu)) {
		t.Fatal("scheduling options changed the LU factors")
	}
	if _, _, err := DistributedFactor(LU, d, lu, r, WithBroadcast(BroadcastKind(99))); err == nil {
		t.Fatal("invalid broadcast kind accepted")
	}

	times := []float64{1, 2, 3, 5}
	planTuned, err := Balance(times, 2, 2, StrategyExact, opts...)
	if err != nil {
		t.Fatal(err)
	}
	planPlain, err := Balance(times, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	if planTuned.Objective() != planPlain.Objective() {
		t.Fatalf("Balance objectives differ: %v vs %v", planTuned.Objective(), planPlain.Objective())
	}
}

// TestFactorizationUnifiesKernels: Factor returns the one result type for
// all three factorizations, carrying exactly what the serial replays
// behind it compute.
func TestFactorizationUnifiesKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}

	a := matrix.RandomWellConditioned(16, rng)
	f, err := Factor(LU, d, a)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kernel() != LU {
		t.Fatalf("kernel %v", f.Kernel())
	}
	rep, err := kernels.ReplayLUNumerics(d, a, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed().Equal(rep.C) {
		t.Fatal("Factor(LU) and the LU replay disagree")
	}
	ops := f.Ops()
	if !reflect.DeepEqual(ops, rep.Ops) {
		t.Fatalf("ops %v vs %v", ops, rep.Ops)
	}
	// Ops returns a copy: mutating it must not touch the result.
	if len(ops) > 0 {
		ops[0]++
		if f.Ops()[0] == ops[0] {
			t.Fatal("Ops exposed internal state")
		}
	}
	l, u := f.LU()
	if l == nil || u == nil {
		t.Fatal("LU unpack failed")
	}

	spd := matrix.RandomSPD(16, rng)
	fc, err := Factor(Cholesky, d, spd)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := kernels.ReplayCholeskyNumerics(d, spd, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !fc.L().Equal(repC.C) {
		t.Fatal("Factor(Cholesky) and the Cholesky replay disagree")
	}

	q := matrix.Random(16, 16, rng)
	fq, err := Factor(QR, d, q)
	if err != nil {
		t.Fatal(err)
	}
	repQ, err := kernels.ReplayQRNumerics(d, q, matrix.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !fq.R().Equal(repQ.R()) {
		t.Fatal("Factor(QR) and the QR replay disagree on R")
	}
	if !fq.Q(4).Equal(repQ.Q(4)) {
		t.Fatal("Factor(QR) and the QR replay disagree on Q")
	}

	if _, err := Factor(MatMul, d, a); err == nil {
		t.Fatal("Factor(MatMul) accepted; matmul is not a factorization")
	}
}

// TestDistributedFactorMatchesSerial: the real distributed execution of
// each factorization is bit-identical to the serial replay behind Factor.
func TestDistributedFactorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const r = 4
	cases := []struct {
		kernel Kernel
		input  *Matrix
	}{
		{LU, matrix.RandomWellConditioned(16, rng)},
		{Cholesky, matrix.RandomSPD(16, rng)},
		{QR, matrix.Random(16, 16, rng)},
	}
	for _, tc := range cases {
		t.Run(tc.kernel.String(), func(t *testing.T) {
			serial, err := Factor(tc.kernel, d, tc.input)
			if err != nil {
				t.Fatal(err)
			}
			dist, _, err := DistributedFactor(tc.kernel, d, tc.input, r)
			if err != nil {
				t.Fatal(err)
			}
			if !dist.Packed().Equal(serial.Packed()) {
				t.Fatalf("distributed %v differs from the serial replay", tc.kernel)
			}
		})
	}
	if _, _, err := DistributedFactor(MatMul, d, cases[0].input, r); err == nil {
		t.Fatal("DistributedFactor(MatMul) accepted")
	}
}

// TestFactorizationAccessorMismatchPanics: calling a kernel-specific
// accessor on the wrong kernel's result is a programming error and panics
// with a message naming both kernels.
func TestFactorizationAccessorMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factor(LU, d, matrix.RandomWellConditioned(16, rng))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatalf("%s on an LU result did not panic", name)
			}
			if msg, ok := p.(string); !ok || !strings.Contains(msg, "lu") {
				t.Fatalf("%s panic %v does not name the kernel", name, p)
			}
		}()
		fn()
	}
	mustPanic("L", func() { f.L() })
	mustPanic("R", func() { f.R() })
	mustPanic("Q", func() { f.Q(4) })
}
