package hetgrid

import (
	"math/rand"
	"strings"
	"testing"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

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
