package hetgrid

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

// driftTestPolicy is an eager policy for tests: short windows, no patience
// beyond one hot window, near-free migrations under a loopback-scale net
// model, so genuine drift migrates quickly and deterministically.
func driftTestPolicy(times []float64) DriftPolicy {
	return DriftPolicy{
		Window:        2,
		Alpha:         1,
		Threshold:     0.5,
		Patience:      1,
		Hysteresis:    1.01,
		MaxMigrations: 1,
		Times:         times,
		Net:           SimOptions{Latency: 1e-12, ByteTime: 1e-15},
	}
}

// skewDist plans a distribution for cycle-times that declare rank p*q-1
// `speedup`× faster than the rest — the "wrong baseline" of the drift
// tests: the actual ranks are equal-speed, so the detector sees sustained
// drift away from the planned shares without any wall-clock dependence.
func skewDist(t *testing.T, p, q, nb int, k Kernel, speedup float64) (Distribution, []float64) {
	t.Helper()
	flat := make([]float64, p*q)
	for i := range flat {
		flat[i] = 1
	}
	flat[p*q-1] = 1 / speedup
	plan, _, err := SolvePlan(PlanRequest{Times: flat, P: p, Q: q, Fixed: true, Strategy: PlanHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := plan.BestPanel(nb, nb, k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lay.Distribute(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d, flat
}

// TestDriftWrongBaselineMigratesLU: a layout planned for an 8×-fast corner
// rank runs on actually-equal ranks. The detector must observe the drift,
// migrate onto a balanced layout mid-LU, and still return a result
// bit-identical to the serial factorization. The migration assertion feeds
// on wall-clock busy gauges, so blocks are 24×24: the early two-step
// windows then hold ≳100 µs of real compute per rank, and a preemption no
// longer skews the estimates enough to veto the move (at 3×3 blocks it did,
// in about one run of seven beside a CPU hog).
func TestDriftWrongBaselineMigratesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	const nb, r = 10, 24
	d, times := skewDist(t, 2, 2, nb, LU, 8)
	a := matrix.RandomWellConditioned(nb*r, rng)
	serial := factorPacked(t, LU, d, a)
	f, stats, err := DistributedFactor(LU, d, a, r, WithDriftRebalance(driftTestPolicy(times)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed().Equal(serial) {
		t.Fatal("drift-migrated LU differs from the serial factorization")
	}
	ds := stats.Drift
	if ds == nil {
		t.Fatal("no drift stats on a drift-enabled run")
	}
	if ds.Migrations != 1 {
		t.Fatalf("expected exactly one migration, got %+v", ds)
	}
	if ds.Windows == 0 || ds.Evaluations == 0 || ds.MovedBlocks == 0 {
		t.Fatalf("implausible drift stats: %+v", ds)
	}
	if ds.PredictedSaving <= 0 {
		t.Fatalf("accepted a migration with no predicted saving: %+v", ds)
	}
}

// TestDriftSlowdownMigratesAndMatchesClean drives the drift loop with the
// real mechanism end to end: a deterministic slowdown injected on one rank
// inflates its busy-time gauge, the detector estimates the new cycle-times
// and migrates, and the result still matches the undisturbed run for every
// kernel.
func TestDriftSlowdownMigratesAndMatchesClean(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	const nb, r = 10, 4
	d, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	slow := WithFaults(FaultOptions{
		Slowdowns: []SlowdownPoint{{Rank: 3, Step: 0, Factor: 32}},
	})
	drift := WithDriftRebalance(driftTestPolicy(nil))

	t.Run("lu", func(t *testing.T) {
		a := matrix.RandomWellConditioned(nb*r, rng)
		serial := factorPacked(t, LU, d, a)
		f, stats, err := DistributedFactor(LU, d, a, r, slow, drift)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Packed().Equal(serial) {
			t.Fatal("drift-migrated LU differs from the serial factorization")
		}
		if stats.Drift == nil || stats.Drift.Migrations != 1 {
			t.Fatalf("expected one slowdown-driven migration: %+v", stats.Drift)
		}
		if stats.Faults == nil || stats.Faults.Slowdowns == 0 {
			t.Fatalf("slowdown point never activated: %+v", stats.Faults)
		}
	})
	t.Run("matmul", func(t *testing.T) {
		a, b := matrix.Random(nb*r, nb*r, rng), matrix.Random(nb*r, nb*r, rng)
		clean, _, err := DistributedMultiply(d, a, b, r)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := DistributedMultiply(d, a, b, r, slow, drift)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(clean) {
			t.Fatal("drift-migrated product differs from the undisturbed run")
		}
		if stats.Drift == nil || stats.Drift.Migrations != 1 {
			t.Fatalf("expected one slowdown-driven migration: %+v", stats.Drift)
		}
	})
	t.Run("cholesky", func(t *testing.T) {
		spd := matrix.RandomSPD(nb*r, rng)
		clean, _, err := DistributedFactor(Cholesky, d, spd, r)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := DistributedFactor(Cholesky, d, spd, r, slow, drift)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Packed().Equal(clean.Packed()) {
			t.Fatal("drift-migrated Cholesky differs from the undisturbed run")
		}
		if stats.Drift == nil || stats.Drift.Migrations != 1 {
			t.Fatalf("expected one slowdown-driven migration: %+v", stats.Drift)
		}
	})
	t.Run("qr", func(t *testing.T) {
		a := matrix.Random(nb*r, nb*r, rng)
		clean, _, err := DistributedFactor(QR, d, a, r)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := DistributedFactor(QR, d, a, r, slow, drift)
		if err != nil {
			t.Fatal(err)
		}
		if !got.R().Equal(clean.R()) {
			t.Fatal("drift-migrated R differs from the undisturbed run")
		}
		if !got.Q(r).Equal(clean.Q(r)) {
			t.Fatal("drift-migrated Q differs from the undisturbed run")
		}
		if stats.Drift == nil || stats.Drift.Migrations != 1 {
			t.Fatalf("expected one slowdown-driven migration: %+v", stats.Drift)
		}
	})
}

// TestDriftQuietOnBalancedRun: with a correct baseline and no injected
// drift, the detector observes windows but never migrates, and the result
// is untouched.
func TestDriftQuietOnBalancedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	const nb, r = 8, 3
	d, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rng)
	serial := factorPacked(t, LU, d, a)
	// A lenient threshold keeps scheduler noise from arming the detector.
	pol := DriftPolicy{Window: 2, Threshold: 1e9}
	f, stats, err := DistributedFactor(LU, d, a, r, WithDriftRebalance(pol))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed().Equal(serial) {
		t.Fatal("drift-enabled balanced LU differs from the serial factorization")
	}
	ds := stats.Drift
	if ds == nil || ds.Windows == 0 {
		t.Fatalf("detector never observed a window: %+v", ds)
	}
	if ds.Migrations != 0 || ds.Evaluations != 0 || ds.MovedBlocks != 0 {
		t.Fatalf("balanced run migrated: %+v", ds)
	}
}

// TestDriftOverInjectedFabrics: a migration is a second attempt, so it
// follows the one rule for injected fabrics — a factory serves it (sized to
// the same ranks), a fixed instance refuses it. Same wrong-baseline setup and block size as
// TestDriftWrongBaselineMigratesLU, so the migration is reliable.
func TestDriftOverInjectedFabrics(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	const nb, r = 10, 24
	d, times := skewDist(t, 2, 2, nb, LU, 8)
	a := matrix.RandomWellConditioned(nb*r, rng)
	serial := factorPacked(t, LU, d, a)
	var sizes []int
	f, stats, err := DistributedFactor(LU, d, a, r,
		withTransportFactory(func(ranks int) (Transport, error) {
			sizes = append(sizes, ranks)
			return engine.NewMemTransport(ranks), nil
		}),
		WithDriftRebalance(driftTestPolicy(times)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed().Equal(serial) {
		t.Fatal("drift-migrated LU over a transport factory differs from the serial factorization")
	}
	if stats.Drift.Migrations != 1 || !reflect.DeepEqual(sizes, []int{4, 4}) {
		t.Fatalf("want one migration over two 4-rank fabrics, got %+v over %v", stats.Drift, sizes)
	}
	_, _, err = DistributedFactor(LU, d, a, r,
		WithTransport(engine.NewMemTransport(4)),
		WithDriftRebalance(driftTestPolicy(times)))
	if err == nil || !strings.Contains(err.Error(), "a fixed transport serves exactly one world") {
		t.Fatalf("expected the fixed fabric to refuse the migration attempt, got %v", err)
	}
}

// TestDriftRejectsBadTimes: a Times vector that does not match the grid is
// rejected up front.
func TestDriftRejectsBadTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(12, rng)
	_, _, err = DistributedFactor(LU, d, a, 2,
		WithDriftRebalance(DriftPolicy{Times: []float64{1, 2, 3}}))
	if err == nil || !strings.Contains(err.Error(), "drift cycle-times") {
		t.Fatalf("expected a cycle-times length error, got %v", err)
	}
}

// TestParseDriftPolicyRoundTrip pins the flag grammar: every valid policy
// round-trips through its String form, and malformed terms are rejected
// with errors naming the offending key.
func TestParseDriftPolicyRoundTrip(t *testing.T) {
	policies := []DriftPolicy{
		{},
		{Window: 4, Alpha: 0.5, Threshold: 0.25, Patience: 2, Hysteresis: 1.2, MaxMigrations: 2},
		{Window: 1, Alpha: 1, Threshold: 0.01, Hysteresis: 1.001, MaxMigrations: 7},
	}
	for _, p := range policies {
		back, err := ParseDriftPolicy(p.String())
		if err != nil {
			t.Fatalf("%q does not parse: %v", p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("%q round-trips to %+v, want %+v", p.String(), back, p)
		}
	}
	got, err := ParseDriftPolicy(" window = 8 , MAX = 1 ")
	if err != nil || got.Window != 8 || got.MaxMigrations != 1 {
		t.Fatalf("padded form: %+v, %v", got, err)
	}
	// cooldown was a key until the knob it set was found inert and deleted.
	for _, bad := range []string{"window", "window=", "window=-1", "alpha=1.5", "alpha=x",
		"threshold=NaN", "bogus=1", "cooldown=2", "=4", "window=4,,max=1"} {
		if _, err := ParseDriftPolicy(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
