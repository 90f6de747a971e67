package hetgrid

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

// withTransportFactory builds each attempt's fabric with f: the
// per-attempt path of the run supervisor, of which WithTransport is the
// one-shot form.
func withTransportFactory(f func(ranks int) (Transport, error)) Option {
	return func(co *callOptions) { co.exec.TransportFactory = f }
}

// TestWithTransportMatchesDefault: injecting the mem fabric explicitly is indistinguishable from the default — same factors, bit for
// bit.
func TestWithTransportMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 2
	a := matrix.RandomWellConditioned(12, rng)
	clean, _, err := DistributedFactor(LU, d, a, r)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := DistributedFactor(LU, d, a, r, WithTransport(engine.NewMemTransport(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packed().Equal(clean.Packed()) {
		t.Fatal("injected mem fabric changed the factors")
	}
	if stats.Messages == 0 {
		t.Fatal("stats lost the traffic of the injected fabric")
	}
}

// TestWithTransportFactoryBuildsPerAttempt: the factory sees the attempt's
// rank count and its fabric carries the run.
func TestWithTransportFactoryBuildsPerAttempt(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	d, err := Uniform(2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(12, rng)
	var sizes []int
	got, _, err := DistributedFactor(LU, d, a, 2, withTransportFactory(func(ranks int) (Transport, error) {
		sizes = append(sizes, ranks)
		return engine.NewMemTransport(ranks), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 6 {
		t.Fatalf("factory invocations %v, want one for 6 ranks", sizes)
	}
	clean, _, err := DistributedFactor(LU, d, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packed().Equal(clean.Packed()) {
		t.Fatal("factory-built fabric changed the factors")
	}
}

// TestFixedTransportRejectsRecovery: a fixed fabric instance spans a fixed
// rank count, so combining it with crash recovery (which replans a smaller
// world) must fail loudly, saying why.
func TestFixedTransportRejectsRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(12, rng)
	_, _, err = DistributedFactor(LU, d, a, 2,
		WithTransport(engine.NewMemTransport(4)),
		WithFaults(FaultOptions{
			Crashes: []CrashPoint{{Rank: 3, Step: 2}},
			Recover: true,
		}))
	if err == nil {
		t.Fatal("fixed transport + recovery accepted")
	}
	if !strings.Contains(err.Error(), "a fixed transport serves exactly one world") {
		t.Fatalf("error does not say why the fixed fabric refused: %v", err)
	}
}

// TestTransportFactoryRecovery: with a factory the recovery path works —
// the replanned (smaller) attempt gets a fresh fabric sized to the
// survivors, and the result stays bit-identical to the fault-free run.
func TestTransportFactoryRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const r = 2
	a := matrix.RandomWellConditioned(12, rng)
	clean, _, err := DistributedFactor(LU, d, a, r)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	got, stats, err := DistributedFactor(LU, d, a, r,
		withTransportFactory(func(ranks int) (Transport, error) {
			sizes = append(sizes, ranks)
			return engine.NewMemTransport(ranks), nil
		}),
		WithFaults(FaultOptions{
			Crashes:     []CrashPoint{{Rank: 3, Step: 2}},
			Recover:     true,
			RecvTimeout: 750 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packed().Equal(clean.Packed()) {
		t.Fatal("recovered factors differ from the fault-free run")
	}
	if stats.Faults == nil || stats.Faults.Recoveries != 1 {
		t.Fatalf("expected one recovery: %+v", stats.Faults)
	}
	if len(sizes) < 2 || sizes[0] != 4 || sizes[len(sizes)-1] >= 4 {
		t.Fatalf("factory sizes %v: want 4 ranks first, then a smaller survivor world", sizes)
	}
}
